#include "trace.hpp"

#include <fstream>
#include <stdexcept>

#include "stats.hpp"

namespace perfbench {

Tracer::Scope::Scope(Tracer* t, int rank, const char* name)
    : tracer_(t), rank_(rank) {
  if (!tracer_) return;
  RankBuffer& b = tracer_->ranks_[static_cast<std::size_t>(rank_)];
  Span s;
  s.name = name;
  s.parent = b.open.empty() ? -1 : b.open.back();
  s.step = b.step;
  index_ = static_cast<int>(b.spans.size());
  b.spans.push_back(s);
  b.open.push_back(index_);
  // Read the clock last so the bookkeeping above is not charged to the span.
  b.spans.back().begin = host_now();
}

Tracer::Scope::~Scope() {
  if (!tracer_) return;
  const double end = host_now();
  RankBuffer& b = tracer_->ranks_[static_cast<std::size_t>(rank_)];
  b.spans[static_cast<std::size_t>(index_)].end = end;
  b.open.pop_back();
}

void Tracer::clear() {
  for (RankBuffer& b : ranks_) {
    b.spans.clear();
    b.open.clear();
    b.step = -1;
  }
}

std::map<std::string, Tracer::Totals> Tracer::totals(int rank) const {
  const std::vector<Span>& ss = spans(rank);
  std::vector<std::vector<Interval>> children(ss.size());
  for (const Span& s : ss)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].push_back({s.begin, s.end});
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < ss.size(); ++i) {
    Totals& t = out[ss[i].name];
    t.total += ss[i].end - ss[i].begin;
    t.self += self_time({ss[i].begin, ss[i].end}, children[i]);
  }
  return out;
}

namespace {

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out.precision(17);
  return out;
}

double earliest(const Tracer& t) {
  double t0 = 0;
  bool any = false;
  for (int r = 0; r < t.ranks(); ++r)
    for (const Tracer::Span& s : t.spans(r))
      if (!any || s.begin < t0) {
        t0 = s.begin;
        any = true;
      }
  return t0;
}

}  // namespace

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out = open_out(path);
  const double t0 = earliest(*this);
  for (int r = 0; r < ranks(); ++r) {
    const std::vector<Span>& ss = spans(r);
    for (std::size_t i = 0; i < ss.size(); ++i)
      out << "{\"rank\":" << r << ",\"id\":" << i << ",\"parent\":"
          << ss[i].parent << ",\"step\":" << ss[i].step << ",\"name\":\""
          << ss[i].name << "\",\"begin_s\":" << ss[i].begin - t0
          << ",\"end_s\":" << ss[i].end - t0 << "}\n";
  }
}

void Tracer::write_chrome(const std::string& path,
                          const std::string& label) const {
  std::ofstream out = open_out(path);
  const double t0 = earliest(*this);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\""
      << label << "\"}}";
  for (int r = 0; r < ranks(); ++r) {
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << r
        << ",\"args\":{\"name\":\"rank " << r << "\"}}";
    for (const Span& s : spans(r))
      out << ",\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,"
          << "\"tid\":" << r << ",\"ts\":" << (s.begin - t0) * 1e6
          << ",\"dur\":" << (s.end - s.begin) * 1e6
          << ",\"args\":{\"step\":" << s.step << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
