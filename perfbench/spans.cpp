#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>
#include <utility>

namespace perfbench {
namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<int> open_stack;

double steady_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Length of the union of [start, end) intervals.
double union_length(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = -1e300;
  for (const auto& [start, end] : intervals) {
    const double from = std::max(start, reach);
    if (end > from) covered += end - from;
    reach = std::max(reach, end);
  }
  return covered;
}

}  // namespace

Spans::Scope::Scope(Spans& spans, const std::string& name, int parent)
    : spans_(spans), id_(spans.open(name, parent)) {}

Spans::Scope::~Scope() { spans_.close(id_); }

int Spans::open(const std::string& name, int parent) {
  if (parent == kInnermost) parent = open_stack.empty() ? -1 : open_stack.back();
  SpanRecord record;
  record.name = name;
  record.parent = parent;
  record.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  record.start_s = steady_seconds();
  int id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<int>(records_.size());
    records_.push_back(std::move(record));
  }
  open_stack.push_back(id);
  return id;
}

void Spans::close(int id) {
  const double end = steady_seconds();
  open_stack.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  records_[static_cast<std::size_t>(id)].end_s = end;
}

std::vector<SpanRecord> Spans::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::vector<double> Spans::durations(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& record : records()) {
    if (record.name == name) out.push_back(record.seconds());
  }
  return out;
}

double Spans::total(const std::string& name) const {
  double sum = 0.0;
  for (const double d : durations(name)) sum += d;
  return sum;
}

std::map<std::string, double> Spans::self_seconds() const {
  const std::vector<SpanRecord> all = records();
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const SpanRecord& record : all) {
    if (record.parent < 0) continue;
    const SpanRecord& parent = all[static_cast<std::size_t>(record.parent)];
    children[static_cast<std::size_t>(record.parent)].emplace_back(
        std::max(record.start_s, parent.start_s), std::min(record.end_s, parent.end_s));
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < all.size(); ++i) {
    self[all[i].name] += all[i].seconds() - union_length(children[i]);
  }
  return self;
}

oxmlc::obs::Json Spans::to_json() const {
  using oxmlc::obs::Json;
  const std::vector<SpanRecord> all = records();
  const double origin = all.empty() ? 0.0 : all.front().start_s;
  std::map<std::size_t, int> thread_index;  // thread hash -> 0, 1, ... in first-use order
  Json spans = Json::array();
  for (const SpanRecord& record : all) {
    const int thread =
        thread_index.emplace(record.thread, static_cast<int>(thread_index.size())).first->second;
    Json entry = Json::object();
    entry.set("name", record.name);
    entry.set("start_s", record.start_s - origin);
    entry.set("end_s", record.end_s - origin);
    entry.set("parent", record.parent);
    entry.set("thread", thread);
    spans.push_back(entry);
  }
  Json self = Json::object();
  for (const auto& [name, seconds] : self_seconds()) self.set(name, seconds);
  Json json = Json::object();
  json.set("spans", spans);
  json.set("self_s", self);
  return json;
}

}  // namespace perfbench
