#include "graph/binary_io.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "graph/csr_builder.h"
#include "obs/metrics.h"
#include "util/crc32.h"
#include "util/fileio.h"
#include "util/memory_tracker.h"
#include "util/mmap_file.h"

namespace cpgan::graph {

namespace {

struct Header {
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  uint32_t payload_crc = 0;
};

void EncodeHeader(const Header& header,
                  uint8_t out[kBinaryEdgeListHeaderBytes]) {
  internal::EncodeBinaryHeader(header.num_nodes, header.num_edges,
                               header.payload_crc, out);
}

/// Computes the payload CRC and (when `f` is non-null) writes the records,
/// buffered so neither pass issues per-edge syscalls. One function for both
/// passes keeps the bytes-hashed and bytes-written definitions identical.
bool StreamPayload(const std::vector<Edge>& edges, util::Crc32* crc,
                   std::FILE* f) {
  std::vector<uint32_t> buffer;
  buffer.reserve(2 * 4096);
  auto flush = [&]() {
    if (buffer.empty()) return true;
    const size_t bytes = buffer.size() * sizeof(uint32_t);
    if (crc != nullptr) crc->Update(buffer.data(), bytes);
    if (f != nullptr &&
        std::fwrite(buffer.data(), 1, bytes, f) != bytes) {
      return false;
    }
    buffer.clear();
    return true;
  };
  for (const auto& [u, v] : edges) {
    buffer.push_back(static_cast<uint32_t>(std::min(u, v)));
    buffer.push_back(static_cast<uint32_t>(std::max(u, v)));
    if (buffer.size() >= 2 * 4096 && !flush()) return false;
  }
  return flush();
}

bool WriteBinaryEdgeList(const std::string& path, int64_t num_nodes,
                         const std::vector<Edge>& edges) {
  Header header;
  header.num_nodes = static_cast<uint64_t>(num_nodes);
  header.num_edges = static_cast<uint64_t>(edges.size());
  util::Crc32 crc;
  StreamPayload(edges, &crc, nullptr);
  header.payload_crc = crc.Digest();
  return util::AtomicWriteFile(path, [&](std::FILE* f) {
    uint8_t encoded[kBinaryEdgeListHeaderBytes];
    EncodeHeader(header, encoded);
    if (std::fwrite(encoded, 1, sizeof(encoded), f) != sizeof(encoded)) {
      return false;
    }
    return StreamPayload(edges, nullptr, f);
  });
}

}  // namespace

namespace internal {

// Field-by-field memcpy rather than a packed struct so the on-disk layout
// cannot drift with compiler padding rules.
void EncodeBinaryHeader(uint64_t num_nodes, uint64_t num_edges,
                        uint32_t payload_crc,
                        uint8_t out[kBinaryEdgeListHeaderBytes]) {
  uint32_t magic = kBinaryEdgeListMagic;
  uint32_t version = kBinaryEdgeListVersion;
  std::memcpy(out + 0, &magic, 4);
  std::memcpy(out + 4, &version, 4);
  std::memcpy(out + 8, &num_nodes, 8);
  std::memcpy(out + 16, &num_edges, 8);
  std::memcpy(out + 24, &payload_crc, 4);
  uint32_t header_crc = util::Crc32Of(out, 28);
  std::memcpy(out + 28, &header_crc, 4);
}

}  // namespace internal

ConvertResult ConvertEdgeListToBinary(const std::string& text_path,
                                      const std::string& binary_path,
                                      const LoadOptions& options) {
  CPGAN_STOPWATCH_SCOPE("ingest.convert");
  ConvertResult result;
  internal::ParsedEdgeList parsed =
      internal::ParseEdgeListText(text_path, options);
  result.malformed_lines = parsed.malformed_lines;
  result.self_loops = parsed.self_loops;
  result.duplicate_edges = parsed.duplicate_edges;
  if (!parsed.ok()) {
    result.error = std::move(parsed.error);
    return result;
  }
  result.num_nodes = parsed.num_nodes;
  result.num_edges = static_cast<int64_t>(parsed.edges.size());
  if (!WriteBinaryEdgeList(binary_path, parsed.num_nodes, parsed.edges)) {
    result.error = "cannot write '" + binary_path + "'";
    return result;
  }
  return result;
}

bool SaveBinaryEdgeList(const Graph& g, const std::string& path) {
  return WriteBinaryEdgeList(path, g.num_nodes(), g.Edges());
}

bool IsBinaryEdgeList(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  uint32_t magic = 0;
  const bool read_ok = std::fread(&magic, 1, 4, f) == 4;
  std::fclose(f);
  return read_ok && magic == kBinaryEdgeListMagic;
}

LoadResult LoadBinaryEdgeListDetailed(const std::string& path,
                                      const LoadOptions& options) {
  (void)options;  // binary loads are always strict (see header comment)
  CPGAN_STOPWATCH_SCOPE("ingest.mmap.load");
  LoadResult result;
  auto fail = [&result, &path](const std::string& what) {
    result.error = "'" + path + "': " + what;
    result.graph.reset();
    return result;
  };

  std::string map_error;
  std::optional<util::MappedFile> mapped =
      util::MappedFile::Open(path, &map_error);
  if (!mapped.has_value()) {
    result.error = map_error;
    return result;
  }
  if (mapped->size() < kBinaryEdgeListHeaderBytes) {
    return fail("too short for a .cpge header (" +
                std::to_string(mapped->size()) + " bytes)");
  }
  const uint8_t* bytes = mapped->data();
  uint32_t magic = 0, version = 0, payload_crc = 0, header_crc = 0;
  uint64_t num_nodes = 0, num_edges = 0;
  std::memcpy(&magic, bytes + 0, 4);
  std::memcpy(&version, bytes + 4, 4);
  std::memcpy(&num_nodes, bytes + 8, 8);
  std::memcpy(&num_edges, bytes + 16, 8);
  std::memcpy(&payload_crc, bytes + 24, 4);
  std::memcpy(&header_crc, bytes + 28, 4);
  if (magic != kBinaryEdgeListMagic) return fail("not a .cpge file (bad magic)");
  if (header_crc != util::Crc32Of(bytes, 28)) {
    return fail("header checksum mismatch (corrupt header)");
  }
  if (version != kBinaryEdgeListVersion) {
    return fail("unsupported .cpge version " + std::to_string(version));
  }
  if (num_nodes > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return fail("node count " + std::to_string(num_nodes) + " exceeds INT_MAX");
  }
  const uint64_t expected_size =
      kBinaryEdgeListHeaderBytes + num_edges * 2 * sizeof(uint32_t);
  if (mapped->size() != expected_size) {
    return fail("size mismatch: header declares " + std::to_string(num_edges) +
                " edge(s) = " + std::to_string(expected_size) +
                " bytes, file has " + std::to_string(mapped->size()) +
                " (truncated or trailing bytes)");
  }

  // RAM-budget gate (--mem-budget-mb): the CSR build's tracked footprint is
  // predictable from the header alone, so an over-budget ingest fails here,
  // before a single byte is allocated. The mapping itself is page cache,
  // not heap, and deliberately does not count (util/mmap_file.h).
  util::MemoryTracker& tracker = util::MemoryTracker::Global();
  if (tracker.budget_bytes() > 0) {
    const int64_t projected =
        tracker.live_bytes() +
        static_cast<int64_t>((2 * num_nodes + (num_nodes + 1)) *
                                 sizeof(int64_t) +
                             2 * num_edges * sizeof(int));
    if (projected > tracker.budget_bytes()) {
      return fail("CSR construction needs ~" +
                  std::to_string(projected >> 20) +
                  " MiB, over the configured memory budget of " +
                  std::to_string(tracker.budget_bytes() >> 20) + " MiB");
    }
  }

  const uint8_t* payload = bytes + kBinaryEdgeListHeaderBytes;
  const size_t payload_bytes = mapped->size() - kBinaryEdgeListHeaderBytes;
  {
    CPGAN_STOPWATCH_SCOPE("ingest.mmap.crc");
    if (payload_crc != util::Crc32Of(payload, payload_bytes)) {
      return fail("payload checksum mismatch (corrupt or bit-rotted data)");
    }
  }

  std::string build_error;
  std::optional<Graph> graph = BuildGraphFromCanonicalEdges(
      static_cast<int64_t>(num_nodes),
      std::span<const uint32_t>(reinterpret_cast<const uint32_t*>(payload),
                                2 * num_edges),
      &build_error);
  if (!graph.has_value()) return fail(build_error);
  result.graph = std::move(graph);
  return result;
}

}  // namespace cpgan::graph
