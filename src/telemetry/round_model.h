#ifndef HIVESIM_TELEMETRY_ROUND_MODEL_H_
#define HIVESIM_TELEMETRY_ROUND_MODEL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace hivesim::telemetry {

/// The analyzer's input/round-reconstruction layer (consumed by
/// telemetry/analysis.h). A trace reaches the analyzer as the text of
/// the Chrome trace_event JSON that `TraceRecorder::ToChromeJson`
/// writes. Ingestion streams that text once with `JsonReader` (no
/// `JsonValue` tree) into a compact dataset: lanes, event names and
/// zones are interned, and each event keeps only the typed args the
/// analyzer reads. The dataset is the same as a walk over
/// `ParseJson`'s tree would give (docs/PERFORMANCE.md states the
/// contract), so every timestamp is the double strtod reads from the
/// file's %.6f text.

/// One trace event, times in the trace file's microseconds.
struct CanonEvent {
  bool instant = false;
  int lane = 0;  ///< Index into TraceDataset::lanes.
  int name = 0;  ///< Index into TraceDataset::names.
  double ts_us = 0;
  double dur_us = 0;  ///< 0 for instants.
  // The args the analyzer reads. An absent arg, or one of the wrong
  // JSON type, reads as the default.
  int epoch = -1;     ///< args.epoch, truncated to int.
  double bytes = 0;   ///< args.bytes.
  int src_zone = -1;  ///< args.src_zone as a TraceDataset::zones index;
                      ///< -1 when absent or "".
  int dst_zone = -1;  ///< args.dst_zone, likewise.

  double end_us() const { return ts_us + dur_us; }
};

/// A full trace, events in file order (which is
/// recorder order — `ToChromeJson` serializes in recorder order).
struct TraceDataset {
  /// One entry per thread_name metadata event, in file order. A tid
  /// declared twice keeps its first lane (the later name is still
  /// listed, unreferenced).
  std::vector<std::string> lanes;
  std::vector<std::string> names;  ///< Distinct event names, first use.
  std::vector<std::string> zones;  ///< Distinct zone args, first use.
  std::vector<CanonEvent> events;
};

/// Builds the dataset from the text of a Chrome trace_event
/// file written by `TraceRecorder::ToChromeJson`, in one pass over the
/// text. Lane names come from the thread_name metadata events;
/// non-metadata events ("X" spans and "i" instants; other phases are
/// skipped) must reference a declared tid. Duplicate keys keep their
/// last value, and a later traceEvents key replaces an earlier one.
/// InvalidArgument on any syntax error (skipped values included), on a
/// missing traceEvents array, and on a tid or an epoch arg outside the
/// int range.
Result<TraceDataset> DatasetFromChromeJson(std::string_view json_text);

/// What a slice of critical-path time was spent on.
enum class Phase {
  kCalc,           ///< Gradient accumulation toward the target batch.
  kMatchmakeWait,  ///< Waiting on group formation, no matchmake span.
  kMatchmake,      ///< Inside a DHT matchmake span.
  kFlow,           ///< Bound by a WAN transfer (see Segment::flow).
  kOverhead,       ///< Comm window not covered by any flow (serialize,
                   ///< aggregate, apply, retry backoff).
};
std::string_view PhaseName(Phase phase);

/// A gradient-exchange (or DHT/control) transfer assigned to a round,
/// clipped to the round's communication window.
struct FlowRef {
  double start_us = 0;
  double end_us = 0;
  double bytes = 0;
  int src = -1;
  int dst = -1;
  int src_zone = -1;  ///< RoundModel::zones index; -1 when the trace
  int dst_zone = -1;  ///< predates zone args.
  int link = -1;      ///< RoundModel::links index.
};

/// One slice of a round's critical path. Slices partition
/// [Round::start_us, Round::end_us]; `flow` indexes Round::flows for
/// kFlow slices and is -1 otherwise.
struct Segment {
  double start_us = 0;
  double end_us = 0;
  Phase phase = Phase::kOverhead;
  int flow = -1;

  double dur_us() const { return end_us - start_us; }
};

/// One reconstructed training round (trainer epoch).
struct Round {
  int run = 0;    ///< Trace-segment index (see RoundModel::num_runs).
  int epoch = 0;  ///< Trainer epoch number within the run.
  double start_us = 0;
  double calc_end_us = 0;   ///< End of gradient accumulation.
  double avg_start_us = 0;  ///< Averaging start (== calc_end when the
                            ///< trainer recorded no matchmake wait).
  double end_us = 0;
  std::vector<FlowRef> flows;     ///< Recorder order, clipped.
  std::vector<Segment> critical;  ///< Partition of [start_us, end_us].
  int retries = 0;                ///< round-retry instants in-window.
  bool degraded = false;          ///< round-degraded instant in-window.
  std::vector<std::string> chaos; ///< Chaos instants in-window, in order.

  double dur_us() const { return end_us - start_us; }
};

/// The reconstructed dependency model of a whole trace.
struct RoundModel {
  std::vector<Round> rounds;  ///< Run order, then epoch order.
  /// Number of trace segments. A multi-simulation recording (e.g. a
  /// bench binary's --trace-out) holds several simulations (each
  /// restarting at t=0), separated by "run-start" instants on the
  /// "trace" lane; a marker-free trace is a single run.
  int num_runs = 1;
  /// Zone names (the dataset's zones) and link names, which FlowRef
  /// indexes. A link is "src_zone->dst_zone", or "node<s>->node<d>"
  /// when a flow lacks a zone arg; equal names share one index.
  std::vector<std::string> zones;
  std::vector<std::string> links;
  double modeled_us = 0;    ///< Sum of round durations.
  double unmodeled_us = 0;  ///< Traced sim-time outside any complete
                            ///< round (bootstrap head, stopped tail).
};

/// Reconstructs rounds and their critical paths from a dataset.
/// Attribution semantics (docs/OBSERVABILITY.md has the full contract):
///   [start, calc_end]    -> kCalc;
///   [calc_end, avg_start]-> kMatchmake where a matchmake span covers
///                           the instant, kMatchmakeWait elsewhere;
///   [avg_start, end]     -> the covering net flow with the latest end
///                           time (ties: earliest recorded), kOverhead
///                           where no flow is in flight.
Result<RoundModel> BuildRoundModel(const TraceDataset& dataset);

}  // namespace hivesim::telemetry

#endif  // HIVESIM_TELEMETRY_ROUND_MODEL_H_
