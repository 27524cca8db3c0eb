// Popularity-contest survey simulation.
//
// The paper weighs API usage by per-package installation counts from the
// Debian/Ubuntu "popularity contest" (2,935,744 opt-in installations). That
// dataset only publishes marginal counts — no joint information — which
// forces the paper's independence assumption (§A.2). This simulator
// reproduces the data-generating process: it samples whole installations
// (package sets honouring dependency closures), then tallies the marginal
// counts an opt-in survey would report. Retained joint samples let the
// ablation bench quantify the error of the independence assumption.
//
// Sampling is sub-linear in the package count and sharded. Closures are
// monotone (d in closure(x) implies closure(d) is a subset of closure(x)),
// so an installation is exactly the union of the closures of packages it
// picks independently, each with its own marginal. Each installation draws
// from its own PRNG stream keyed by (seed, installation index), and
// fixed-size blocks of installations fold in index order, so the survey is
// identical with or without an executor and at any thread count.

#ifndef LAPIS_SRC_PACKAGE_POPCON_H_
#define LAPIS_SRC_PACKAGE_POPCON_H_

#include <cstdint>
#include <vector>

#include "src/package/repository.h"
#include "src/util/prng.h"
#include "src/util/status.h"

namespace lapis::runtime {
class Executor;
}  // namespace lapis::runtime

namespace lapis::package {

// Version of the sampler's random stream. Survey caches key on it: bump it
// whenever the same inputs would produce a different survey.
inline constexpr uint32_t kPopconSamplerVersion = 2;

// A sampled installation as a package-id bitset.
class InstallationSet {
 public:
  explicit InstallationSet(size_t package_count)
      : bits_((package_count + 63) / 64, 0) {}

  void Add(PackageId id) { bits_[id / 64] |= 1ULL << (id % 64); }
  bool Contains(PackageId id) const {
    return (bits_[id / 64] >> (id % 64)) & 1;
  }
  size_t CountInstalled() const;

  // Raw bitset words, for serialization (src/cache survey codec).
  const std::vector<uint64_t>& words() const { return bits_; }
  static InstallationSet FromWords(std::vector<uint64_t> words) {
    InstallationSet set(0);
    set.bits_ = std::move(words);
    return set;
  }

 private:
  std::vector<uint64_t> bits_;
};

struct PopconOptions {
  uint64_t installation_count = 100000;
  // Fraction of installations that opt into reporting (popcon is opt-in).
  double report_rate = 1.0;
  // Keep at most this many joint samples for the independence ablation
  // (0 = keep none).
  uint64_t retain_samples = 0;
  uint64_t seed = 0x1a915;

  // Installation profiles (server / desktop / developer ...): when
  // profile_count > 0, each installation draws one profile uniformly and
  // packages belonging to that profile (package id % profile_count) are
  // `profile_boost`x more likely to be picked, others proportionally less,
  // preserving each package's average marginal. This induces positive
  // correlation between same-profile packages — the joint structure the
  // real popcon data hides and the paper's §A.2 independence assumption
  // ignores. Only packages with target marginal <= 0.5 participate
  // (essentials stay unconditional).
  uint32_t profile_count = 0;
  double profile_boost = 3.0;
};

struct PopconSurvey {
  // Reported installation count per package id.
  std::vector<uint64_t> install_counts;
  // Number of installations that reported.
  uint64_t total_reporting = 0;
  // Retained joint samples (among reporting installations).
  std::vector<InstallationSet> samples;

  double InstallProbability(PackageId id) const {
    if (total_reporting == 0) {
      return 0.0;
    }
    return static_cast<double>(install_counts[id]) /
           static_cast<double>(total_reporting);
  }
};

class PopconSimulator {
 public:
  // `target_marginals[i]` is the probability an installation picks package i
  // directly; the final marginal is inflated by reverse-dependency pulls
  // (installing an app installs its libraries). Values are clamped to [0,1].
  // Blocks of installations run on `executor` when given (inline
  // otherwise); the survey does not depend on it.
  static Result<PopconSurvey> Run(const Repository& repository,
                                  const std::vector<double>& target_marginals,
                                  const PopconOptions& options,
                                  runtime::Executor* executor = nullptr);
};

}  // namespace lapis::package

#endif  // LAPIS_SRC_PACKAGE_POPCON_H_
