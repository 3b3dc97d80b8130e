// In-memory span recorder for the benchmark's traced runs.
//
// A span is (name, start, end, parent, thread), recorded by the benchmark
// around its own calls into a layer of the program; nothing inside the
// program is instrumented. Spans are kept in memory and written out once, at
// exit. A scope's parent is the innermost scope open on the same thread, or an
// explicit span id for work handed to pool workers.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start_s = 0.0;  // steady clock
  double end_s = 0.0;
  int parent = -1;       // index into the recorder, -1 for a root
  std::size_t thread = 0;

  double seconds() const { return end_s - start_s; }
};

class Spans {
 public:
  static constexpr int kInnermost = -2;

  class Scope {
   public:
    Scope(Spans& spans, const std::string& name, int parent = kInnermost);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int id() const { return id_; }

   private:
    Spans& spans_;
    int id_;
  };

  // Durations of every closed span called `name`, in recording order.
  std::vector<double> durations(const std::string& name) const;
  double total(const std::string& name) const;

  // Self time per span name: each span's duration minus the part of its
  // interval that its children cover (children on several threads may
  // overlap; their union is subtracted once).
  std::map<std::string, double> self_seconds() const;

  oxmlc::obs::Json to_json() const;

 private:
  std::vector<SpanRecord> records() const;  // a copy, taken under the lock
  int open(const std::string& name, int parent);
  void close(int id);

  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;  // guarded by mutex_
};

}  // namespace perfbench
