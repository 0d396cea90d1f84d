#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {

using namespace lpm;

// --- Digest -----------------------------------------------------------------

void Digest::byte(unsigned char b) {
  h_ ^= b;
  h_ *= 0x100000001b3ULL;
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(const std::string& s) {
  add(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) byte(static_cast<unsigned char>(c));
}

namespace {

void add_camat(Digest& d, const camat::CamatMetrics& m) {
  for (const std::uint64_t v :
       {m.accesses, m.hits, m.misses, m.pure_misses, m.active_cycles,
        m.hit_cycles, m.miss_cycles, m.pure_miss_cycles,
        m.hit_phase_access_cycles, m.miss_access_cycles, m.pure_access_cycles,
        m.hit_access_cycles, m.total_miss_latency}) {
    d.add(v);
  }
}

void add_cache(Digest& d, const mem::CacheStats& s) {
  for (const std::uint64_t v :
       {s.accesses, s.hits, s.misses, s.mshr_coalesced, s.rejected_ports,
        s.rejected_bank, s.rejected_backlog, s.mshr_full_waits, s.writebacks,
        s.writeback_hits, s.writeback_forwards, s.fills, s.evictions,
        s.deferred_fills, s.prefetches_issued, s.prefetch_hits,
        s.prefetch_coalesced, s.quota_waits}) {
    d.add(v);
  }
  for (const std::uint64_t v : s.core_accesses) d.add(v);
  for (const std::uint64_t v : s.core_misses) d.add(v);
}

}  // namespace

void Digest::add(const sim::SystemResult& r) {
  add(static_cast<std::uint64_t>(r.completed));
  add(r.cycles);
  for (const auto& c : r.cores) {
    for (const std::uint64_t v :
         {c.instructions, c.mem_ops, c.loads, c.stores, c.cycles,
          c.commit_cycles, c.mem_active_cycles, c.overlap_cycles,
          c.data_stall_cycles, c.head_mem_stall_cycles, c.l1_rejections}) {
      add(v);
    }
  }
  for (const auto& m : r.l1) add_camat(*this, m);
  add_camat(*this, r.l2);
  add_camat(*this, r.dram);
  for (const auto& m : r.l2_private) add_camat(*this, m);
  for (const auto& s : r.l1_cache) add_cache(*this, s);
  add_cache(*this, r.l2_cache);
  for (const auto& s : r.l2_private_cache) add_cache(*this, s);
  const mem::DramStats& d = r.dram_stats;
  for (const std::uint64_t v :
       {d.reads, d.writes, d.row_hits, d.row_misses, d.row_conflicts,
        d.rejected_full, d.busy_cycles, d.total_read_latency}) {
    add(v);
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

// --- Report -----------------------------------------------------------------

void Report::op(bool ok, const std::string& why) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 16) failures.push_back(why);
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_map(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += json_string(k) + ":" + json_number(v);
  }
  return out + "}";
}

}  // namespace

std::string Report::to_json() const {
  const auto strings = [](const std::vector<std::string>& v) {
    std::string out = "[";
    for (const std::string& x : v) {
      if (out.size() > 1) out += ",";
      out += json_string(x);
    }
    return out + "]";
  };
  std::string out = "{";
  out += "\"setup_s\":" + json_number(setup_s);
  out += ",\"run_s\":" + json_number(run_s);
  out += ",\"instructions\":" + std::to_string(instructions);
  out += ",\"configs\":" + std::to_string(configs);
  out += ",\"jobs\":" + std::to_string(jobs);
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"failures\":" + strings(failures);
  out += ",\"outcome\":" + strings(outcome);
  out += ",\"digest\":" + json_string(digest.hex());
  out += ",\"peak_rss_mb\":" + json_number(peak_rss_mb());
  out += ",\"counts\":" + json_map(counts);
  out += ",\"layers\":" + json_map(layers);
  out += ",\"samples_ms\":{";
  for (auto it = samples_ms.begin(); it != samples_ms.end(); ++it) {
    if (it != samples_ms.begin()) out += ",";
    out += json_string(it->first) + ":[";
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      if (i > 0) out += ",";
      out += json_number(it->second[i]);
    }
    out += "]";
  }
  return out + "}}";
}

// --- checks and counts ------------------------------------------------------

std::string check_result(const sim::SystemResult& r) {
  if (!r.completed) return "run hit max_cycles";
  if (r.cycles == 0) return "zero cycles";
  for (std::size_t c = 0; c < r.cores.size(); ++c) {
    if (r.cores[c].instructions == 0) return "core " + std::to_string(c) + " committed nothing";
    if (r.l1_cache.at(c).accesses == 0) return "core " + std::to_string(c) + " made no L1 accesses";
  }
  const auto eq2 = [](const camat::CamatMetrics& m, const std::string& layer) -> std::string {
    if (m.accesses == 0 || m.active_cycles == 0) return {};
    const double measured = m.camat();
    if (std::fabs(m.camat_eq2() - measured) > 1e-9 * (1.0 + measured)) {
      return layer + ": Eq. 2 C-AMAT " + std::to_string(m.camat_eq2()) +
             " != measured " + std::to_string(measured);
    }
    return {};
  };
  for (std::size_t c = 0; c < r.l1.size(); ++c) {
    if (auto e = eq2(r.l1[c], "L1." + std::to_string(c)); !e.empty()) return e;
  }
  for (std::size_t c = 0; c < r.l2_private.size(); ++c) {
    if (auto e = eq2(r.l2_private[c], "L2p." + std::to_string(c)); !e.empty()) return e;
  }
  if (auto e = eq2(r.l2, "L2"); !e.empty()) return e;
  return eq2(r.dram, "DRAM");
}

std::uint64_t committed_instructions(const exp::SimJobResult& r) {
  std::uint64_t n = 0;
  for (const auto& c : r.run.cores) n += c.instructions;
  for (const auto& c : r.calib) n += c.instructions;
  return n;
}

void add_result_counts(const std::vector<const sim::SystemResult*>& runs,
                       Report& rep) {
  double l1_misses = 0, mshr_waits = 0, dram_reads = 0, row_hits = 0,
         row_total = 0, instr = 0, cycles = 0, pure = 0;
  for (const sim::SystemResult* r : runs) {
    for (const auto& s : r->l1_cache) {
      l1_misses += static_cast<double>(s.misses);
      mshr_waits += static_cast<double>(s.mshr_full_waits);
    }
    mshr_waits += static_cast<double>(r->l2_cache.mshr_full_waits);
    const auto& d = r->dram_stats;
    dram_reads += static_cast<double>(d.reads);
    row_hits += static_cast<double>(d.row_hits);
    row_total += static_cast<double>(d.row_hits + d.row_misses + d.row_conflicts);
    for (const auto& c : r->cores) instr += static_cast<double>(c.instructions);
    cycles += static_cast<double>(r->cycles);
    for (const auto& m : r->l1) pure += static_cast<double>(m.pure_misses);
    pure += static_cast<double>(r->l2.pure_misses + r->dram.pure_misses);
  }
  rep.counts["mem.l1_misses"] = l1_misses;
  rep.counts["mem.mshr_full_waits"] = mshr_waits;
  rep.counts["mem.dram_reads"] = dram_reads;
  rep.counts["mem.dram_row_hit_ratio"] = row_total > 0 ? row_hits / row_total : 0.0;
  rep.counts["sim.instructions"] = instr;
  rep.counts["sim.cycles"] = cycles;
  rep.counts["camat.pure_misses"] = pure;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t counter_delta(const obs::MetricsSnapshot& before,
                            const obs::MetricsSnapshot& after,
                            const std::string& name) {
  return after.counter_or_zero(name) - before.counter_or_zero(name);
}

// --- tracer -----------------------------------------------------------------

namespace {

struct SpanRecord {
  const char* name;
  std::int64_t id;
  std::int64_t parent;
  double start_s;
  double end_s;
};

struct TracerState {
  bool on = false;
  std::string run_id;
  Clock::time_point origin = Clock::now();
  std::mutex mutex;
  std::int64_t next_id = 0;
  std::vector<SpanRecord> spans;
};

TracerState& tracer() {
  static TracerState* state = new TracerState();  // outlives every thread
  return *state;
}

thread_local std::vector<std::int64_t> t_open_spans;

}  // namespace

void Tracer::enable(std::string run_id) {
  tracer().run_id = std::move(run_id);
  tracer().on = true;
}

void Tracer::write(const std::string& path) {
  TracerState& t = tracer();
  std::lock_guard<std::mutex> lock(t.mutex);
  std::ofstream out(path);
  out << "[";
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const SpanRecord& s = t.spans[i];
    out << (i ? ",\n" : "") << "{\"run\":" << json_string(t.run_id)
        << ",\"name\":" << json_string(s.name) << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"start_s\":" << json_number(s.start_s)
        << ",\"end_s\":" << json_number(s.end_s) << "}";
  }
  out << "]\n";
}

std::map<std::string, double> Tracer::self_seconds() {
  TracerState& t = tracer();
  std::lock_guard<std::mutex> lock(t.mutex);
  std::unordered_map<std::int64_t, double> child_time;
  for (const SpanRecord& s : t.spans) {
    if (s.parent >= 0) child_time[s.parent] += s.end_s - s.start_s;
  }
  std::map<std::string, double> out;
  for (const SpanRecord& s : t.spans) {
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    out[layer] += (s.end_s - s.start_s) - child_time[s.id];
  }
  return out;
}

double Tracer::total_seconds(const std::string& name) {
  TracerState& t = tracer();
  std::lock_guard<std::mutex> lock(t.mutex);
  double total = 0.0;
  for (const SpanRecord& s : t.spans) {
    if (name == s.name) total += s.end_s - s.start_s;
  }
  return total;
}

Span::Span(const char* name) : name_(name) {
  TracerState& t = tracer();
  if (!t.on) return;
  {
    std::lock_guard<std::mutex> lock(t.mutex);
    id_ = t.next_id++;
  }
  parent_ = t_open_spans.empty() ? -1 : t_open_spans.back();
  t_open_spans.push_back(id_);
  start_ = Clock::now();
}

Span::~Span() {
  if (id_ < 0) return;
  const Clock::time_point end = Clock::now();
  TracerState& t = tracer();
  t_open_spans.pop_back();
  const auto rel = [&](Clock::time_point p) {
    return std::chrono::duration<double>(p - t.origin).count();
  };
  std::lock_guard<std::mutex> lock(t.mutex);
  t.spans.push_back({name_, id_, parent_, rel(start_), rel(end)});
}

}  // namespace perfbench
