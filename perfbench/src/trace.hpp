// Host-clock spans around the benchmark's calls into each layer.
//
// One buffer per simulated rank: a rank thread only ever touches its own
// buffer, so recording takes no lock. Spans are kept in memory and written
// when the benchmark ends, as JSON lines and as Chrome trace-event JSON
// (one track per rank; open it in Perfetto or chrome://tracing). A
// disabled tracer records nothing and reads no clock.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Host wall clock (steady_clock) in seconds.
inline double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* name = "";
    int parent = -1;  ///< index of the enclosing span on the same rank
    long step = -1;   ///< step (or event) the span belongs to; -1 = setup
    double begin = 0, end = 0;
  };

  /// RAII span: opened at construction, closed at destruction.
  class Scope {
   public:
    Scope(Tracer* t, int rank, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int rank_;
    int index_ = -1;
  };

  explicit Tracer(int nranks) : ranks_(static_cast<std::size_t>(nranks)) {}

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Drop every recorded span (between repetitions).
  void clear();

  Scope scope(int rank, const char* name) {
    return Scope(enabled_ ? this : nullptr, rank, name);
  }
  /// Tag spans opened from now on by `rank` with `step`.
  void set_step(int rank, long step) {
    ranks_[static_cast<std::size_t>(rank)].step = step;
  }

  int ranks() const { return static_cast<int>(ranks_.size()); }
  const std::vector<Span>& spans(int rank) const {
    return ranks_[static_cast<std::size_t>(rank)].spans;
  }

  /// Per-name host seconds on one rank: `total` sums span durations,
  /// `self` subtracts the union of each span's children.
  struct Totals {
    double total = 0, self = 0;
  };
  std::map<std::string, Totals> totals(int rank) const;

  void write_jsonl(const std::string& path) const;
  void write_chrome(const std::string& path, const std::string& label) const;

 private:
  struct RankBuffer {
    std::vector<Span> spans;
    std::vector<int> open;
    long step = -1;
  };
  std::vector<RankBuffer> ranks_;
  bool enabled_ = false;
};

}  // namespace perfbench
