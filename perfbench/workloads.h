// The lapis_perfbench workloads. Each runs its set-up `config.setups`
// times, measures for `config.seconds`, checks its outputs, and fills
// `report`; spans go to `tracer` (a no-op unless the run is traced). A
// non-OK return means set-up failed and there is no result to print.

#ifndef LAPIS_PERFBENCH_WORKLOADS_H_
#define LAPIS_PERFBENCH_WORKLOADS_H_

#include "perfbench/common.h"
#include "perfbench/trace.h"
#include "src/corpus/dataset_io.h"
#include "src/util/status.h"

namespace lapis::perfbench {

Status RunStudyWarm(const Config& config, Tracer& tracer, Report& report);
Status RunServeMix(const Config& config, Tracer& tracer, Report& report);

// Two traced plan sweeps over `artifact` (an audited study's), with their
// outputs checked; serve_mix's traced run calls this.
Status RunPlanPass(const corpus::StudyArtifact& artifact, uint64_t seed,
                   Tracer& tracer, Report& report);

}  // namespace lapis::perfbench

#endif  // LAPIS_PERFBENCH_WORKLOADS_H_
