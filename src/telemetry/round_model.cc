#include "telemetry/round_model.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/json_parse.h"
#include "common/strings.h"

namespace hivesim::telemetry {

namespace {

/// Interns strings into a name table: each distinct string gets the
/// next index, in first-use order.
class Interner {
 public:
  explicit Interner(std::vector<std::string>* table) : table_(table) {}

  int Intern(std::string_view text) {
    const auto it = index_.find(text);
    if (it != index_.end()) return it->second;
    const int id = static_cast<int>(table_->size());
    table_->emplace_back(text);
    index_.emplace(std::string(text), id);
    return id;
  }

  void Clear() {
    table_->clear();
    index_.clear();
  }

 private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view text) const {
      return std::hash<std::string_view>{}(text);
    }
  };

  std::vector<std::string>* table_;
  std::unordered_map<std::string, int, Hash, std::equal_to<>> index_;
};

/// A double truncated to int, as static_cast<int> would, when it is in
/// range; false otherwise (the cast would be undefined).
bool TruncateToInt(double value, int* out) {
  if (!(value > -2147483649.0 && value < 2147483648.0)) return false;
  *out = static_cast<int>(value);
  return true;
}

/// The members of one traceEvents entry that ingestion reads. Each
/// member holds the value of the last occurrence of its key, read the
/// way JsonValue's NumberOr/StringOr would read it.
struct EntryFields {
  enum class Ph { kOther, kMetadata, kSpan, kInstant };

  Ph ph = Ph::kOther;
  double tid = -1;
  std::string name;
  bool has_ts = false;
  double ts = 0;
  double dur = 0;
  // args.
  bool has_arg_name = false;
  std::string arg_name;
  double epoch = -1;
  double bytes = 0;
  std::string src_zone;
  std::string dst_zone;

  void Reset() {
    ph = Ph::kOther;
    tid = -1;
    name.clear();
    has_ts = false;
    ts = 0;
    dur = 0;
    ResetArgs();
  }

  void ResetArgs() {
    has_arg_name = false;
    arg_name.clear();
    epoch = -1;
    bytes = 0;
    src_zone.clear();
    dst_zone.clear();
  }
};

/// Reads a number, or skips a value of any other kind and reports
/// `fallback` (JsonValue::NumberOr).
Status ReadNumberOr(JsonReader& reader, double fallback, double* out) {
  JsonValue::Kind kind;
  HIVESIM_RETURN_IF_ERROR(reader.Peek(&kind));
  if (kind == JsonValue::Kind::kNumber) return reader.ReadNumber(out);
  *out = fallback;
  return reader.Skip();
}

/// Reads a string into `out`, or skips a value of any other kind and
/// reports "" (JsonValue::StringOr("")). `is_string` may be null.
Status ReadStringOr(JsonReader& reader, std::string* out,
                    bool* is_string) {
  JsonValue::Kind kind;
  HIVESIM_RETURN_IF_ERROR(reader.Peek(&kind));
  if (is_string != nullptr) *is_string = kind == JsonValue::Kind::kString;
  if (kind != JsonValue::Kind::kString) {
    out->clear();
    return reader.Skip();
  }
  std::string_view text;
  HIVESIM_RETURN_IF_ERROR(reader.ReadString(&text));
  out->assign(text);
  return Status::OK();
}

Status ReadArgs(JsonReader& reader, EntryFields* entry) {
  entry->ResetArgs();  // A later "args" key replaces an earlier one.
  JsonValue::Kind kind;
  HIVESIM_RETURN_IF_ERROR(reader.Peek(&kind));
  if (kind != JsonValue::Kind::kObject) return reader.Skip();
  HIVESIM_RETURN_IF_ERROR(reader.BeginObject());
  for (std::string_view key;;) {
    bool more = false;
    HIVESIM_RETURN_IF_ERROR(reader.NextKey(&key, &more));
    if (!more) return Status::OK();
    if (key == "name") {
      HIVESIM_RETURN_IF_ERROR(
          ReadStringOr(reader, &entry->arg_name, &entry->has_arg_name));
    } else if (key == "epoch") {
      HIVESIM_RETURN_IF_ERROR(ReadNumberOr(reader, -1, &entry->epoch));
    } else if (key == "bytes") {
      HIVESIM_RETURN_IF_ERROR(ReadNumberOr(reader, 0, &entry->bytes));
    } else if (key == "src_zone") {
      HIVESIM_RETURN_IF_ERROR(
          ReadStringOr(reader, &entry->src_zone, nullptr));
    } else if (key == "dst_zone") {
      HIVESIM_RETURN_IF_ERROR(
          ReadStringOr(reader, &entry->dst_zone, nullptr));
    } else {
      HIVESIM_RETURN_IF_ERROR(reader.Skip());
    }
  }
}

Status ReadEntry(JsonReader& reader, EntryFields* entry) {
  entry->Reset();
  HIVESIM_RETURN_IF_ERROR(reader.BeginObject());
  for (std::string_view key;;) {
    bool more = false;
    HIVESIM_RETURN_IF_ERROR(reader.NextKey(&key, &more));
    if (!more) return Status::OK();
    if (key == "ph") {
      JsonValue::Kind kind;
      HIVESIM_RETURN_IF_ERROR(reader.Peek(&kind));
      entry->ph = EntryFields::Ph::kOther;
      if (kind != JsonValue::Kind::kString) {
        HIVESIM_RETURN_IF_ERROR(reader.Skip());
        continue;
      }
      std::string_view ph;
      HIVESIM_RETURN_IF_ERROR(reader.ReadString(&ph));
      if (ph == "M") entry->ph = EntryFields::Ph::kMetadata;
      if (ph == "X") entry->ph = EntryFields::Ph::kSpan;
      if (ph == "i") entry->ph = EntryFields::Ph::kInstant;
    } else if (key == "tid") {
      HIVESIM_RETURN_IF_ERROR(ReadNumberOr(reader, -1, &entry->tid));
    } else if (key == "name") {
      HIVESIM_RETURN_IF_ERROR(ReadStringOr(reader, &entry->name, nullptr));
    } else if (key == "ts") {
      JsonValue::Kind kind;
      HIVESIM_RETURN_IF_ERROR(reader.Peek(&kind));
      entry->has_ts = kind == JsonValue::Kind::kNumber;
      HIVESIM_RETURN_IF_ERROR(entry->has_ts ? reader.ReadNumber(&entry->ts)
                                            : reader.Skip());
    } else if (key == "dur") {
      HIVESIM_RETURN_IF_ERROR(ReadNumberOr(reader, 0, &entry->dur));
    } else if (key == "args") {
      HIVESIM_RETURN_IF_ERROR(ReadArgs(reader, entry));
    } else {
      HIVESIM_RETURN_IF_ERROR(reader.Skip());
    }
  }
}

/// One traceEvents array streamed into a dataset.
class EventsIngest {
 public:
  EventsIngest() : names_(&dataset_.names), zones_(&dataset_.zones) {}

  /// Reads the traceEvents array at the reader, replacing what an
  /// earlier traceEvents array left. A syntax error is returned; the
  /// first semantic error is kept in status() while the rest of the
  /// array is still checked for syntax.
  Status ReadArray(JsonReader& reader) {
    dataset_.lanes.clear();
    dataset_.events.clear();
    names_.Clear();
    zones_.Clear();
    lane_by_tid_.clear();
    status_ = Status::OK();
    HIVESIM_RETURN_IF_ERROR(reader.BeginArray());
    EntryFields entry;
    for (bool more = true;;) {
      HIVESIM_RETURN_IF_ERROR(reader.NextElement(&more));
      if (!more) return Status::OK();
      JsonValue::Kind kind;
      HIVESIM_RETURN_IF_ERROR(reader.Peek(&kind));
      if (!status_.ok()) {
        HIVESIM_RETURN_IF_ERROR(reader.Skip());
        continue;
      }
      if (kind != JsonValue::Kind::kObject) {
        status_ =
            Status::InvalidArgument("traceEvents entry is not an object");
        HIVESIM_RETURN_IF_ERROR(reader.Skip());
        continue;
      }
      HIVESIM_RETURN_IF_ERROR(ReadEntry(reader, &entry));
      status_ = Add(entry);
    }
  }

  const Status& status() const { return status_; }
  TraceDataset&& TakeDataset() { return std::move(dataset_); }

 private:
  Status Add(const EntryFields& entry) {
    using Ph = EntryFields::Ph;
    if (entry.ph == Ph::kOther) return Status::OK();  // Unknown phases.
    if (entry.ph == Ph::kMetadata && entry.name != "thread_name") {
      return Status::OK();
    }
    int tid = -1;
    if (!TruncateToInt(entry.tid, &tid)) {
      return Status::InvalidArgument(
          StrFormat("tid %g is outside the int range", entry.tid));
    }
    if (entry.ph == Ph::kMetadata) {
      if (!entry.has_arg_name) {
        return Status::InvalidArgument("thread_name metadata without name");
      }
      lane_by_tid_.emplace(tid, static_cast<int>(dataset_.lanes.size()));
      dataset_.lanes.push_back(entry.arg_name);
      return Status::OK();
    }
    const auto lane = lane_by_tid_.find(tid);
    if (lane == lane_by_tid_.end()) {
      return Status::InvalidArgument(
          StrFormat("event references undeclared tid %d", tid));
    }
    if (!entry.has_ts) {
      return Status::InvalidArgument("event without numeric ts");
    }
    CanonEvent event;
    if (!TruncateToInt(entry.epoch, &event.epoch)) {
      return Status::InvalidArgument(
          StrCat("event '", entry.name,
                 "' has an epoch arg outside the int range"));
    }
    event.instant = entry.ph == Ph::kInstant;
    event.lane = lane->second;
    event.name = names_.Intern(entry.name);
    event.ts_us = entry.ts;
    event.dur_us = event.instant ? 0 : entry.dur;
    event.bytes = entry.bytes;
    event.src_zone =
        entry.src_zone.empty() ? -1 : zones_.Intern(entry.src_zone);
    event.dst_zone =
        entry.dst_zone.empty() ? -1 : zones_.Intern(entry.dst_zone);
    dataset_.events.push_back(event);
    return Status::OK();
  }

  TraceDataset dataset_;
  Interner names_;
  Interner zones_;
  std::unordered_map<int, int> lane_by_tid_;  ///< First declaration wins.
  Status status_;
};

}  // namespace

Result<TraceDataset> DatasetFromChromeJson(std::string_view json_text) {
  JsonReader reader(json_text);
  EventsIngest ingest;
  bool has_events = false;
  JsonValue::Kind kind;
  HIVESIM_RETURN_IF_ERROR(reader.Peek(&kind));
  if (kind != JsonValue::Kind::kObject) {
    HIVESIM_RETURN_IF_ERROR(reader.Skip());
  } else {
    HIVESIM_RETURN_IF_ERROR(reader.BeginObject());
    for (std::string_view key;;) {
      bool more = false;
      HIVESIM_RETURN_IF_ERROR(reader.NextKey(&key, &more));
      if (!more) break;
      if (key != "traceEvents") {
        HIVESIM_RETURN_IF_ERROR(reader.Skip());
        continue;
      }
      HIVESIM_RETURN_IF_ERROR(reader.Peek(&kind));
      has_events = kind == JsonValue::Kind::kArray;
      HIVESIM_RETURN_IF_ERROR(has_events ? ingest.ReadArray(reader)
                                         : reader.Skip());
    }
  }
  HIVESIM_RETURN_IF_ERROR(reader.Finish());
  if (!has_events) {
    return Status::InvalidArgument(
        "not a Chrome trace: missing traceEvents array");
  }
  if (!ingest.status().ok()) return ingest.status();
  return ingest.TakeDataset();
}

std::string_view PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kCalc: return "calc";
    case Phase::kMatchmakeWait: return "matchmake-wait";
    case Phase::kMatchmake: return "matchmake";
    case Phase::kFlow: return "flow";
    case Phase::kOverhead: return "overhead";
  }
  return "?";
}

namespace {

/// What the round model reads a lane or an event name as. Computed
/// once per lane and once per distinct name, so the per-event work is
/// integer compares.
enum class LaneRole { kOther, kTrainer, kNet, kChaos, kTrace };
enum class NameRole {
  kOther,
  kCalc,
  kComm,
  kMatchmakeWait,
  kMatchmake,
  kRoundRetry,
  kRoundDegraded,
  kRunStart,
  kFlow,  ///< "flow <src>-><dst>".
};

struct NameInfo {
  NameRole role = NameRole::kOther;
  int src = -1;  ///< kFlow endpoints.
  int dst = -1;
};

LaneRole RoleOfLane(const std::string& lane) {
  if (lane == "trainer") return LaneRole::kTrainer;
  if (lane == "net") return LaneRole::kNet;
  if (lane == "chaos") return LaneRole::kChaos;
  if (lane == "trace") return LaneRole::kTrace;
  return LaneRole::kOther;
}

NameInfo InfoOfName(const std::string& name) {
  NameInfo info;
  if (name == "calc") {
    info.role = NameRole::kCalc;
  } else if (name == "comm") {
    info.role = NameRole::kComm;
  } else if (name == "matchmake-wait") {
    info.role = NameRole::kMatchmakeWait;
  } else if (name == "matchmake") {
    info.role = NameRole::kMatchmake;
  } else if (name == "round-retry") {
    info.role = NameRole::kRoundRetry;
  } else if (name == "round-degraded") {
    info.role = NameRole::kRoundDegraded;
  } else if (name == "run-start") {
    info.role = NameRole::kRunStart;
  } else if (std::sscanf(name.c_str(), "flow %d->%d", &info.src,
                         &info.dst) == 2) {
    info.role = NameRole::kFlow;
  }
  return info;
}

/// Link names interned per (zone, zone) or (node, node) pair, so each
/// distinct link name is built once.
class LinkTable {
 public:
  explicit LinkTable(RoundModel* model)
      : model_(model), names_(&model->links) {}

  int Of(const CanonEvent& e, int src, int dst) {
    const bool zoned = e.src_zone >= 0 && e.dst_zone >= 0;
    const int a = zoned ? e.src_zone : src;
    const int b = zoned ? e.dst_zone : dst;
    const uint64_t key = (uint64_t{static_cast<uint32_t>(a)} << 32) |
                         static_cast<uint32_t>(b);
    std::unordered_map<uint64_t, int>& cache = zoned ? by_zones_ : by_nodes_;
    const auto it = cache.find(key);
    if (it != cache.end()) return it->second;
    const std::vector<std::string>& zones = model_->zones;
    const int id = names_.Intern(
        zoned ? StrCat(zones[static_cast<size_t>(a)], "->",
                       zones[static_cast<size_t>(b)])
              : StrFormat("node%d->node%d", src, dst));
    cache.emplace(key, id);
    return id;
  }

 private:
  RoundModel* model_;
  Interner names_;
  std::unordered_map<uint64_t, int> by_zones_;
  std::unordered_map<uint64_t, int> by_nodes_;
};

/// A candidate covering interval for the sweep, already clipped to the
/// window. `index` is the recorder-order position used for tie-breaks.
struct Cover {
  double start = 0;
  double end = 0;
  int index = -1;
};

/// Partitions [w0, w1]: slices covered by some interval get
/// `covered_phase` attributed to the covering interval with the latest
/// end (ties: earliest recorded); uncovered slices get
/// `uncovered_phase`. Appends merged segments to `out`.
void SweepWindow(double w0, double w1, const std::vector<Cover>& covers,
                 Phase covered_phase, Phase uncovered_phase,
                 std::vector<Segment>* out) {
  if (!(w1 > w0)) return;
  std::vector<double> cuts;
  cuts.reserve(2 + covers.size() * 2);
  cuts.push_back(w0);
  cuts.push_back(w1);
  for (const Cover& c : covers) {
    if (c.start > w0 && c.start < w1) cuts.push_back(c.start);
    if (c.end > w0 && c.end < w1) cuts.push_back(c.end);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    const double a = cuts[i];
    const double b = cuts[i + 1];
    const Cover* best = nullptr;
    for (const Cover& c : covers) {
      if (c.start > a || c.end < b || c.end <= c.start) continue;
      if (best == nullptr || c.end > best->end) best = &c;
      // Equal ends keep the earlier `best` (covers are recorder-ordered).
    }
    Segment seg;
    seg.start_us = a;
    seg.end_us = b;
    seg.phase = best != nullptr ? covered_phase : uncovered_phase;
    seg.flow = best != nullptr && covered_phase == Phase::kFlow
                   ? best->index
                   : -1;
    if (!out->empty() && out->back().end_us == a &&
        out->back().phase == seg.phase && out->back().flow == seg.flow) {
      out->back().end_us = b;
    } else {
      out->push_back(seg);
    }
  }
}

/// The recorded intervals that overlap a window, found without a scan.
/// `Overlapping(a, b)` lists, in recorded order, every interval with
/// `!(end <= a) && !(start >= b)`, the test a scan makes. Intervals are
/// sorted by start under a tree of maximum ends, so a query costs
/// O((1 + answers) log n). An interval or a window with a NaN bound is
/// tested one by one, exactly as the scan tests it.
class IntervalIndex {
 public:
  explicit IntervalIndex(std::vector<std::pair<double, double>> spans)
      : spans_(std::move(spans)) {
    for (size_t i = 0; i < spans_.size(); ++i) {
      const auto [start, end] = spans_[i];
      (std::isnan(start) || std::isnan(end) ? unordered_ : by_start_)
          .push_back(static_cast<int>(i));
    }
    std::stable_sort(by_start_.begin(), by_start_.end(), [&](int x, int y) {
      return spans_[x].first < spans_[y].first;
    });
    while (leaves_ < by_start_.size()) leaves_ *= 2;
    max_end_.assign(2 * leaves_, -std::numeric_limits<double>::infinity());
    for (size_t i = 0; i < by_start_.size(); ++i) {
      max_end_[leaves_ + i] = spans_[by_start_[i]].second;
    }
    for (size_t node = leaves_ - 1; node >= 1; --node) {
      max_end_[node] = std::max(max_end_[2 * node], max_end_[2 * node + 1]);
    }
  }

  void Overlapping(double a, double b, std::vector<int>* out) const {
    out->clear();
    const auto overlaps = [&](int i) {
      return !(spans_[i].second <= a) && !(spans_[i].first >= b);
    };
    if (std::isnan(a) || std::isnan(b)) {
      for (int i = 0; i < static_cast<int>(spans_.size()); ++i) {
        if (overlaps(i)) out->push_back(i);
      }
      return;
    }
    // Without NaNs the test is end > a && start < b, and the intervals
    // starting before b are a prefix of the start order.
    const size_t prefix = static_cast<size_t>(
        std::lower_bound(by_start_.begin(), by_start_.end(), b,
                         [&](int i, double t) { return spans_[i].first < t; }) -
        by_start_.begin());
    Collect(1, 0, leaves_, prefix, a, out);
    for (const int i : unordered_) {
      if (overlaps(i)) out->push_back(i);
    }
    std::sort(out->begin(), out->end());
  }

 private:
  /// Appends the intervals at start-order positions [lo, hi) (the leaves
  /// under `node`) that lie in the prefix and end after `a`.
  void Collect(size_t node, size_t lo, size_t hi, size_t prefix, double a,
               std::vector<int>* out) const {
    if (lo >= prefix || !(max_end_[node] > a)) return;
    if (hi - lo == 1) {
      out->push_back(by_start_[lo]);
      return;
    }
    const size_t mid = lo + (hi - lo) / 2;
    Collect(2 * node, lo, mid, prefix, a, out);
    Collect(2 * node + 1, mid, hi, prefix, a, out);
  }

  std::vector<std::pair<double, double>> spans_;  // Recorded order.
  std::vector<int> by_start_;   // Spans without NaN, by (start, index).
  std::vector<int> unordered_;  // Spans with a NaN bound.
  size_t leaves_ = 1;
  std::vector<double> max_end_;  // Heap-ordered tree over by_start_.
};

/// Instants sorted by time (recorded order among equal times), for
/// "which instants fall in [start, end)" lookups by binary search. An
/// instant at NaN is in no window, and neither is anything when a bound
/// is NaN, exactly as `ts >= start && ts < end` decides.
class InstantIndex {
 public:
  explicit InstantIndex(const std::vector<double>& ts) {
    for (size_t i = 0; i < ts.size(); ++i) {
      if (!std::isnan(ts[i])) sorted_.emplace_back(ts[i], static_cast<int>(i));
    }
    std::stable_sort(sorted_.begin(), sorted_.end(),
                     [](const auto& x, const auto& y) {
                       return x.first < y.first;
                     });
  }

  /// The (ts, recorded index) pairs of the instants in [start, end), in
  /// time order.
  std::span<const std::pair<double, int>> Within(double start,
                                                 double end) const {
    if (std::isnan(start) || std::isnan(end) || !(start < end)) return {};
    const auto below = [](const std::pair<double, int>& x, double t) {
      return x.first < t;
    };
    const auto lo =
        std::lower_bound(sorted_.begin(), sorted_.end(), start, below);
    const auto hi = std::lower_bound(lo, sorted_.end(), end, below);
    return {lo, hi};
  }

 private:
  std::vector<std::pair<double, int>> sorted_;  // (ts, recorded index).
};

void AppendSegment(std::vector<Segment>* out, double start, double end,
                   Phase phase) {
  if (!(end > start)) return;
  if (!out->empty() && out->back().end_us == start &&
      out->back().phase == phase && out->back().flow == -1) {
    out->back().end_us = end;
    return;
  }
  Segment seg;
  seg.start_us = start;
  seg.end_us = end;
  seg.phase = phase;
  out->push_back(seg);
}

}  // namespace

Result<RoundModel> BuildRoundModel(const TraceDataset& dataset) {
  RoundModel model;
  model.zones = dataset.zones;
  const std::vector<CanonEvent>& events = dataset.events;
  std::vector<LaneRole> lane_roles;
  lane_roles.reserve(dataset.lanes.size());
  for (const std::string& lane : dataset.lanes) {
    lane_roles.push_back(RoleOfLane(lane));
  }
  std::vector<NameInfo> names;
  names.reserve(dataset.names.size());
  for (const std::string& name : dataset.names) {
    names.push_back(InfoOfName(name));
  }
  const auto lane_of = [&](const CanonEvent& e) {
    return lane_roles[static_cast<size_t>(e.lane)];
  };
  const auto name_of = [&](const CanonEvent& e) -> const NameInfo& {
    return names[static_cast<size_t>(e.name)];
  };
  LinkTable links(&model);

  // A process with global telemetry on (a bench binary's --trace-out,
  // any program embedding the library) records several simulations into
  // one recorder, each restarting at sim-time 0 behind a "run-start"
  // marker; traces may also come from outside the program. Events
  // are grouped by marker position so flows of run k can never be
  // matched against rounds of run k+1 by timestamp coincidence.
  std::vector<size_t> run_starts{0};
  for (size_t i = 1; i < events.size(); ++i) {
    const CanonEvent& e = events[i];
    if (e.instant && lane_of(e) == LaneRole::kTrace &&
        name_of(e).role == NameRole::kRunStart) {
      run_starts.push_back(i);
    }
  }
  model.num_runs = static_cast<int>(run_starts.size());

  for (size_t r = 0; r < run_starts.size(); ++r) {
    const size_t begin = run_starts[r];
    const size_t end = r + 1 < run_starts.size() ? run_starts[r + 1]
                                                 : events.size();
    if (begin >= end) continue;

    double extent_min = events[begin].ts_us;
    double extent_max = events[begin].end_us();
    std::vector<Round> rounds;
    bool pending_comm = false;
    std::vector<std::pair<double, double>> matchmakes;
    std::vector<FlowRef> flows;
    std::vector<double> retry_ts;
    std::vector<double> degraded_ts;
    std::vector<std::pair<double, int>> chaos;  // (ts, name index)

    for (size_t i = begin; i < end; ++i) {
      const CanonEvent& e = events[i];
      extent_min = std::min(extent_min, e.ts_us);
      extent_max = std::max(extent_max, e.end_us());
      const LaneRole lane = lane_of(e);
      const NameInfo& name = name_of(e);
      if (lane == LaneRole::kTrainer) {
        if (!e.instant && name.role == NameRole::kCalc) {
          if (pending_comm) rounds.pop_back();  // calc without comm.
          Round round;
          round.run = static_cast<int>(r);
          round.epoch = e.epoch;
          round.start_us = e.ts_us;
          round.calc_end_us = e.end_us();
          round.avg_start_us = round.calc_end_us;
          round.end_us = round.calc_end_us;
          rounds.push_back(std::move(round));
          pending_comm = true;
        } else if (!e.instant && name.role == NameRole::kComm) {
          if (pending_comm) {
            rounds.back().end_us = std::max(rounds.back().calc_end_us,
                                            e.end_us());
            pending_comm = false;
          }
        } else if (!e.instant && name.role == NameRole::kMatchmakeWait) {
          if (!rounds.empty()) {
            Round& round = rounds.back();
            round.avg_start_us = std::min(
                std::max(e.end_us(), round.calc_end_us), round.end_us);
          }
        } else if (!e.instant && name.role == NameRole::kMatchmake) {
          matchmakes.emplace_back(e.ts_us, e.end_us());
        } else if (e.instant && name.role == NameRole::kRoundRetry) {
          retry_ts.push_back(e.ts_us);
        } else if (e.instant && name.role == NameRole::kRoundDegraded) {
          degraded_ts.push_back(e.ts_us);
        }
      } else if (lane == LaneRole::kNet && !e.instant &&
                 name.role == NameRole::kFlow) {
        FlowRef flow;
        flow.start_us = e.ts_us;
        flow.end_us = e.end_us();
        flow.bytes = e.bytes;
        flow.src = name.src;
        flow.dst = name.dst;
        flow.src_zone = e.src_zone;
        flow.dst_zone = e.dst_zone;
        flow.link = links.Of(e, name.src, name.dst);
        flows.push_back(flow);
      } else if (lane == LaneRole::kChaos && e.instant) {
        chaos.emplace_back(e.ts_us, e.name);
      }
    }
    if (pending_comm) rounds.pop_back();  // Trainer stopped mid-round.

    // Each round looks its flows, matchmakes and instants up in sorted
    // indexes: O((rounds + matches) log n) per run, not rounds x events.
    std::vector<std::pair<double, double>> flow_spans;
    flow_spans.reserve(flows.size());
    for (const FlowRef& flow : flows) {
      flow_spans.emplace_back(flow.start_us, flow.end_us);
    }
    const IntervalIndex flow_index(std::move(flow_spans));
    const IntervalIndex mm_index(matchmakes);
    const InstantIndex retry_index(retry_ts);
    const InstantIndex degraded_index(degraded_ts);
    std::vector<double> chaos_ts;
    chaos_ts.reserve(chaos.size());
    for (const auto& [ts, name] : chaos) chaos_ts.push_back(ts);
    const InstantIndex chaos_index(chaos_ts);
    std::vector<int> hits;

    double run_modeled = 0;
    for (Round& round : rounds) {
      // Flows overlapping the communication window, clipped to it.
      std::vector<Cover> flow_covers;
      flow_index.Overlapping(round.avg_start_us, round.end_us, &hits);
      for (const int hit : hits) {
        const FlowRef& flow = flows[static_cast<size_t>(hit)];
        FlowRef clipped = flow;
        clipped.start_us = std::max(flow.start_us, round.avg_start_us);
        clipped.end_us = std::min(flow.end_us, round.end_us);
        Cover cover;
        cover.start = clipped.start_us;
        cover.end = clipped.end_us;
        cover.index = static_cast<int>(round.flows.size());
        round.flows.push_back(clipped);
        flow_covers.push_back(cover);
      }
      std::vector<Cover> mm_covers;
      mm_index.Overlapping(round.calc_end_us, round.avg_start_us, &hits);
      for (const int hit : hits) {
        const auto [mm_start, mm_end] = matchmakes[static_cast<size_t>(hit)];
        Cover cover;
        cover.start = std::max(mm_start, round.calc_end_us);
        cover.end = std::min(mm_end, round.avg_start_us);
        cover.index = static_cast<int>(mm_covers.size());
        mm_covers.push_back(cover);
      }

      AppendSegment(&round.critical, round.start_us, round.calc_end_us,
                    Phase::kCalc);
      SweepWindow(round.calc_end_us, round.avg_start_us, mm_covers,
                  Phase::kMatchmake, Phase::kMatchmakeWait,
                  &round.critical);
      SweepWindow(round.avg_start_us, round.end_us, flow_covers,
                  Phase::kFlow, Phase::kOverhead, &round.critical);

      round.retries = static_cast<int>(
          retry_index.Within(round.start_us, round.end_us).size());
      round.degraded =
          !degraded_index.Within(round.start_us, round.end_us).empty();
      hits.clear();
      for (const auto& [ts, index] :
           chaos_index.Within(round.start_us, round.end_us)) {
        hits.push_back(index);
      }
      std::sort(hits.begin(), hits.end());  // Back to recorded order.
      for (const int hit : hits) {
        const int name = chaos[static_cast<size_t>(hit)].second;
        round.chaos.push_back(dataset.names[static_cast<size_t>(name)]);
      }
      run_modeled += round.dur_us();
    }
    model.modeled_us += run_modeled;
    model.unmodeled_us +=
        std::max(0.0, (extent_max - extent_min) - run_modeled);
    for (Round& round : rounds) model.rounds.push_back(std::move(round));
  }
  return model;
}

}  // namespace hivesim::telemetry
