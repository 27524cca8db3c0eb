// Byte codec + input hashing for the simulated popcon survey.
//
// The popcon stage samples every installation's dependency closures, and
// it is a pure function of (sampler version, repository structure, target
// marginals, PopconOptions). HashSurveyInputs folds all four into one
// content hash so a warm cache can skip the whole simulation; the
// fingerprint half of the key uses BaseFingerprint(kSurvey) — analyzer
// methodology switches do not affect the survey, so flipping use_dataflow
// must NOT invalidate it.

#ifndef LAPIS_SRC_CACHE_SURVEY_CODEC_H_
#define LAPIS_SRC_CACHE_SURVEY_CODEC_H_

#include <vector>

#include "src/cache/footprint_cache.h"
#include "src/package/popcon.h"
#include "src/package/repository.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace lapis::cache {

class SurveyCodec {
 public:
  static void Encode(const package::PopconSurvey& survey, ByteWriter& writer);
  // Rejects (as corrupt) a survey that does not fit a repository of
  // `package_count` packages: one count per package, no count above
  // total_reporting, and (package_count + 63) / 64 words per sample.
  static Result<package::PopconSurvey> Decode(ByteReader& reader,
                                              size_t package_count);
};

// Content hash over everything PopconSimulator::Run consumes: the sampler
// version, every package's name, kind, script count, dependency edges and
// interpreter edge, the target marginals (exact double bit patterns), and
// all PopconOptions fields.
uint64_t HashSurveyInputs(const package::Repository& repository,
                          const std::vector<double>& target_marginals,
                          const package::PopconOptions& options);

// The cache key of a survey: HashSurveyInputs plus BaseFingerprint(kSurvey).
// The fingerprint deliberately excludes the analyzer switches — flipping
// use_dataflow must not invalidate the survey.
CacheKey SurveyCacheKey(const package::Repository& repository,
                        const std::vector<double>& target_marginals,
                        const package::PopconOptions& options);

}  // namespace lapis::cache

#endif  // LAPIS_SRC_CACHE_SURVEY_CODEC_H_
