#include "src/package/popcon.h"

#include <algorithm>
#include <cmath>

#include "src/runtime/parallel.h"

namespace lapis::package {

namespace {

// Installations per shard. Fixed, never derived from the thread count, so
// shard boundaries (and with them the retained samples) are the same at
// every --jobs.
constexpr uint64_t kBlockSize = 2048;
// Blocks sampled per ParallelMap wave; bounds the per-block tallies held
// at once.
constexpr uint64_t kWaveBlocks = 64;

bool Test(const std::vector<uint64_t>& bits, PackageId id) {
  return (bits[id / 64] >> (id % 64)) & 1;
}

void Set(std::vector<uint64_t>& bits, PackageId id) {
  bits[id / 64] |= 1ULL << (id % 64);
}

// Dependency closures of every package as one CSR table; the first member
// of closure(id) is id itself.
struct ClosureTable {
  std::vector<size_t> offsets;
  std::vector<PackageId> members;

  explicit ClosureTable(const Repository& repository) {
    offsets.reserve(repository.size() + 1);
    offsets.push_back(0);
    for (PackageId id = 0; id < repository.size(); ++id) {
      std::vector<PackageId> closure = repository.DependencyClosure(id);
      members.insert(members.end(), closure.begin(), closure.end());
      offsets.push_back(members.size());
    }
  }
};

struct Candidate {
  PackageId id;
  double accept;  // marginal / p_max, in [0.5, 1)
};

// Candidates whose marginal lies in [p_max/2, p_max). Geometric(p_max)
// skips visit each candidate with probability p_max, and accepting with
// probability marginal/p_max picks it with probability exactly marginal.
struct Band {
  double inv_log_miss = 0.0;  // 1 / log(1 - p_max); -0.0 when p_max == 1
  std::vector<Candidate> candidates;
};

// The sampling plan for installations of one profile.
struct ProfileTable {
  // Union of the closures of the packages every installation picks
  // (marginal >= 1), ascending, and the same set as a bitset.
  std::vector<PackageId> certain;
  std::vector<uint64_t> certain_bits;
  // Packages picked with 0 < marginal < 1 whose closure is not already
  // certain, by descending p_max.
  std::vector<Band> bands;
};

ProfileTable BuildProfileTable(const ClosureTable& closures,
                               const std::vector<double>& marginals) {
  const size_t n = marginals.size();
  ProfileTable table;
  table.certain_bits.assign((n + 63) / 64, 0);
  for (PackageId id = 0; id < n; ++id) {
    if (marginals[id] >= 1.0) {
      for (size_t m = closures.offsets[id]; m < closures.offsets[id + 1];
           ++m) {
        Set(table.certain_bits, closures.members[m]);
      }
    }
  }
  for (PackageId id = 0; id < n; ++id) {
    if (Test(table.certain_bits, id)) {
      table.certain.push_back(id);
    }
  }
  // Band by binary exponent: marginal = mantissa * 2^exponent with the
  // mantissa in [0.5, 1), so p_max = 2^exponent and thinning accepts at
  // least half of the visited candidates. NaN and marginals <= 0 never
  // pick; picking a package inside the certain set adds nothing.
  std::vector<std::pair<int, Candidate>> banded;
  for (PackageId id = 0; id < n; ++id) {
    const double marginal = marginals[id];
    if (!(marginal > 0.0) || marginal >= 1.0 || Test(table.certain_bits, id)) {
      continue;
    }
    int exponent = 0;
    const double mantissa = std::frexp(marginal, &exponent);
    banded.push_back({exponent, Candidate{id, mantissa}});
  }
  std::stable_sort(
      banded.begin(), banded.end(),
      [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t i = 0; i < banded.size(); ++i) {
    if (i == 0 || banded[i].first != banded[i - 1].first) {
      Band band;
      band.inv_log_miss =
          1.0 / std::log1p(-std::ldexp(1.0, banded[i].first));
      table.bands.push_back(std::move(band));
    }
    table.bands.back().candidates.push_back(banded[i].second);
  }
  return table;
}

struct BlockTally {
  std::vector<uint32_t> counts;
  uint64_t reporting = 0;
  std::vector<InstallationSet> samples;
};

struct Sampler {
  const ClosureTable& closures;
  const std::vector<ProfileTable>& tables;  // one per profile
  const PopconOptions& options;

  // Samples installations [first, last), keeping the first `keep`
  // reporting ones as joint samples.
  BlockTally SampleBlock(uint64_t first, uint64_t last, uint64_t keep) const {
    const size_t n = closures.offsets.size() - 1;
    BlockTally tally;
    tally.counts.assign(n, 0);
    std::vector<uint64_t> reporting_by_table(tables.size(), 0);
    std::vector<uint64_t> installed((n + 63) / 64, 0);
    std::vector<PackageId> touched;
    for (uint64_t inst = first; inst < last; ++inst) {
      Prng prng(options.seed ^ SplitMix64(inst).Next());
      // Installations that do not report are never tallied; skip sampling.
      if (!prng.NextBool(options.report_rate)) {
        continue;
      }
      const size_t t = tables.size() > 1
                           ? static_cast<size_t>(prng.NextBelow(tables.size()))
                           : 0;
      const ProfileTable& table = tables[t];
      ++reporting_by_table[t];
      for (const Band& band : table.bands) {
        const size_t size = band.candidates.size();
        for (size_t pos = 0;; ++pos) {
          const double skip = std::floor(
              std::log(1.0 - prng.NextDouble()) * band.inv_log_miss);
          if (skip >= static_cast<double>(size - pos)) {
            break;
          }
          pos += static_cast<size_t>(skip);
          const Candidate& candidate = band.candidates[pos];
          if (prng.NextDouble() >= candidate.accept ||
              Test(installed, candidate.id)) {
            continue;  // not picked, or its closure is already in
          }
          for (size_t m = closures.offsets[candidate.id];
               m < closures.offsets[candidate.id + 1]; ++m) {
            const PackageId member = closures.members[m];
            if (!Test(installed, member) &&
                !Test(table.certain_bits, member)) {
              Set(installed, member);
              touched.push_back(member);
            }
          }
        }
      }
      for (PackageId id : touched) {
        ++tally.counts[id];
        installed[id / 64] = 0;
      }
      if (tally.samples.size() < keep) {
        InstallationSet sample =
            InstallationSet::FromWords(table.certain_bits);
        for (PackageId id : touched) {
          sample.Add(id);
        }
        tally.samples.push_back(std::move(sample));
      }
      touched.clear();
    }
    for (size_t t = 0; t < tables.size(); ++t) {
      for (PackageId id : tables[t].certain) {
        tally.counts[id] += static_cast<uint32_t>(reporting_by_table[t]);
      }
      tally.reporting += reporting_by_table[t];
    }
    return tally;
  }
};

}  // namespace

size_t InstallationSet::CountInstalled() const {
  size_t count = 0;
  for (uint64_t word : bits_) {
    count += static_cast<size_t>(__builtin_popcountll(word));
  }
  return count;
}

Result<PopconSurvey> PopconSimulator::Run(
    const Repository& repository, const std::vector<double>& target_marginals,
    const PopconOptions& options, runtime::Executor* executor) {
  const size_t n = repository.size();
  if (target_marginals.size() != n) {
    return InvalidArgumentError("marginals size mismatch");
  }
  if (options.installation_count == 0) {
    return InvalidArgumentError("installation_count must be positive");
  }

  const ClosureTable closures(repository);

  // Profiles reshape the marginals per installation: one sampling table
  // per profile, each a fixed set of independent per-package marginals.
  const uint32_t profiles = options.profile_count;
  double boost = options.profile_boost;
  if (profiles > 1 && boost > static_cast<double>(profiles)) {
    boost = static_cast<double>(profiles);  // keep the dampened arm >= 0
  }
  const double dampen =
      profiles > 1 ? (static_cast<double>(profiles) - boost) /
                         (static_cast<double>(profiles) - 1.0)
                   : 1.0;
  std::vector<ProfileTable> tables;
  for (uint32_t profile = 0; profile < std::max(profiles, 1u); ++profile) {
    std::vector<double> marginals = target_marginals;
    if (profiles > 1) {
      for (PackageId id = 0; id < n; ++id) {
        if (marginals[id] <= 0.5) {
          marginals[id] = std::min(
              1.0, marginals[id] * (id % profiles == profile ? boost : dampen));
        }
      }
    }
    tables.push_back(BuildProfileTable(closures, marginals));
  }

  PopconSurvey survey;
  survey.install_counts.assign(n, 0);
  const Sampler sampler{closures, tables, options};
  const uint64_t blocks =
      (options.installation_count + kBlockSize - 1) / kBlockSize;
  for (uint64_t wave_first = 0; wave_first < blocks;) {
    // While samples are still wanted, a wave spans only the blocks that
    // could be needed to supply them, so unneeded samples are not held.
    const uint64_t wanted = options.retain_samples - survey.samples.size();
    uint64_t wave = std::min(kWaveBlocks, blocks - wave_first);
    if (wanted > 0) {
      wave = std::min(wave, std::max<uint64_t>(
                                1, (wanted + kBlockSize - 1) / kBlockSize));
    }
    auto tallies = runtime::ParallelMap(
        executor, static_cast<size_t>(wave), [&](size_t i) {
          const uint64_t first = (wave_first + i) * kBlockSize;
          const uint64_t last =
              std::min(options.installation_count, first + kBlockSize);
          return sampler.SampleBlock(first, last, wanted);
        });
    runtime::FoldInOrder(tallies, [&](size_t, BlockTally& tally) {
      for (size_t id = 0; id < n; ++id) {
        survey.install_counts[id] += tally.counts[id];
      }
      survey.total_reporting += tally.reporting;
      for (InstallationSet& sample : tally.samples) {
        if (survey.samples.size() == options.retain_samples) {
          break;
        }
        survey.samples.push_back(std::move(sample));
      }
    });
    wave_first += wave;
  }
  return survey;
}

}  // namespace lapis::package
