#include "trace/trace_file.hpp"

#include <array>
#include <cstring>
#include <fstream>

#include "util/error.hpp"

namespace lpm::trace {

namespace {

constexpr std::array<char, 4> kMagic = {'L', 'P', 'M', 'T'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kRecordBytes = 1 + 1 + 4 + 4 + 8;

void put_u32(std::ostream& out, std::uint32_t v) {
  std::array<unsigned char, 4> b{};
  for (int i = 0; i < 4; ++i) b[static_cast<std::size_t>(i)] = (v >> (8 * i)) & 0xff;
  out.write(reinterpret_cast<const char*>(b.data()), b.size());
}

void put_u64(std::ostream& out, std::uint64_t v) {
  std::array<unsigned char, 8> b{};
  for (int i = 0; i < 8; ++i) b[static_cast<std::size_t>(i)] = (v >> (8 * i)) & 0xff;
  out.write(reinterpret_cast<const char*>(b.data()), b.size());
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

std::uint64_t record_trace(TraceSource& source, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  util::require(out.good(), "record_trace: cannot open " + path);

  out.write(kMagic.data(), kMagic.size());
  put_u32(out, kVersion);
  const auto count_pos = out.tellp();
  put_u64(out, 0);  // patched below

  std::uint64_t count = 0;
  std::vector<MicroOp> ops(4096);
  for (;;) {
    const std::size_t got = source.fill(ops.data(), ops.size());
    if (got > ops.size()) {
      throw util::SimError("record_trace: source '" + source.name() +
                           "' returned more ops than requested");
    }
    for (std::size_t i = 0; i < got; ++i) {
      const MicroOp& op = ops[i];
      const auto type = static_cast<unsigned char>(op.type);
      out.write(reinterpret_cast<const char*>(&type), 1);
      out.write(reinterpret_cast<const char*>(&op.exec_latency), 1);
      put_u32(out, op.dep_dist);
      put_u32(out, op.dep_dist2);
      put_u64(out, op.addr);
    }
    count += got;
    if (got < ops.size()) break;  // short fill = source exhausted
  }

  out.seekp(count_pos);
  put_u64(out, count);
  util::require(out.good(), "record_trace: write failed for " + path);
  return count;
}

std::vector<MicroOp> load_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  util::require(in.good(), "load_trace: cannot open " + path);

  std::array<char, 4> magic{};
  in.read(magic.data(), magic.size());
  util::require(in.good() && magic == kMagic, "load_trace: bad magic in " + path);

  std::array<unsigned char, 8> hdr{};
  in.read(reinterpret_cast<char*>(hdr.data()), 4);
  util::require(in.good(), "load_trace: truncated header in " + path);
  const std::uint32_t version = get_u32(hdr.data());
  util::require(version == kVersion, "load_trace: unsupported version in " + path);

  in.read(reinterpret_cast<char*>(hdr.data()), 8);
  util::require(in.good(), "load_trace: truncated header in " + path);
  const std::uint64_t count = get_u64(hdr.data());

  // Guard the allocation: `count` is attacker/corruption-controlled, so
  // check it against the bytes actually present before reserve() — a huge
  // bogus count must fail typed, not OOM the process.
  const std::streamoff records_begin = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff file_end = in.tellg();
  util::require(records_begin >= 0 && file_end >= records_begin,
                "load_trace: cannot size " + path);
  const std::uint64_t available =
      static_cast<std::uint64_t>(file_end - records_begin) / kRecordBytes;
  if (count > available) {
    throw util::IoError("load_trace: header count " + std::to_string(count) +
                        " exceeds the " + std::to_string(available) +
                        " records present in " + path +
                        " (corrupt count field)");
  }
  in.seekg(records_begin);

  std::vector<MicroOp> ops;
  ops.reserve(count);
  std::array<unsigned char, kRecordBytes> rec{};
  for (std::uint64_t i = 0; i < count; ++i) {
    in.read(reinterpret_cast<char*>(rec.data()), rec.size());
    util::require(in.good(), "load_trace: truncated record in " + path);
    MicroOp op;
    util::require(rec[0] <= static_cast<unsigned char>(OpType::kStore),
                  "load_trace: invalid op type in " + path);
    op.type = static_cast<OpType>(rec[0]);
    op.exec_latency = rec[1];
    op.dep_dist = get_u32(&rec[2]);
    op.dep_dist2 = get_u32(&rec[6]);
    op.addr = get_u64(&rec[10]);
    ops.push_back(op);
  }
  return ops;
}

}  // namespace lpm::trace
