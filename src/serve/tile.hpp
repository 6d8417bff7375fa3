// Nowcast product tiling and delta encoding (the serving wire format).
//
// The operational system served each 30-second forecast refresh to millions
// of smartphone users (paper Sec. 1: the MTI app's map view and bird's-eye
// 3-D rendering).  A client never re-downloads the whole domain every 30 s:
// the products are cut on a fixed tile grid, and each tile is shipped either
// as a *keyframe* (the tile's raw samples, run-length compressed) or as a
// *delta* against the same tile of the previous cycle (byte-XOR, then RLE —
// consecutive cycles differ only where the rain moved, so the XOR stream is
// mostly zero runs).  The encoder falls back to a keyframe whenever the
// delta would not be smaller, and unconditionally every `keyframe_every`
// cycles so a bounded cache retention window always contains a decodable
// chain (see product_cache.hpp).
//
// Decoding is defensive by construction: every tile carries the cycle it
// was cut from, the cycle its delta is based on, and a CRC32 of the decoded
// samples — applying a delta to the wrong base cycle is a detected error
// (CRC mismatch / base check), never a silently wrong image.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/field.hpp"
#include "util/types.hpp"

namespace bda::serve {

/// Which Fig 1 product a tile belongs to.
enum class ProductKind : std::uint8_t {
  kMapView = 0,   ///< 2-D composite (column-max) reflectivity
  kVolume3D = 1,  ///< full 3-D reflectivity voxel grid
};

/// Fixed tile grid: tiles are `tile_nx x tile_ny` columns (all vertical
/// levels of a column stay in one tile); edge tiles are clipped.
struct TileGridConfig {
  idx tile_nx = 8;
  idx tile_ny = 8;
};

/// Identity of one tile within a product.
struct TileKey {
  ProductKind kind = ProductKind::kMapView;
  idx tx = 0;  ///< tile column index, [0, tiles_x)
  idx ty = 0;  ///< tile row index, [0, tiles_y)

  friend bool operator<(const TileKey& a, const TileKey& b) {
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.tx != b.tx) return a.tx < b.tx;
    return a.ty < b.ty;
  }
  friend bool operator==(const TileKey& a, const TileKey& b) {
    return a.kind == b.kind && a.tx == b.tx && a.ty == b.ty;
  }
};

/// Sentinel for "this tile is a keyframe" in EncodedTile::base_cycle.
inline constexpr std::int64_t kNoBaseCycle = -1;

/// One encoded tile as it would travel to a client.
struct EncodedTile {
  TileKey key;
  std::uint64_t cycle = 0;  ///< cycle this tile renders
  /// Cycle the delta payload is XOR-based on; kNoBaseCycle for keyframes.
  std::int64_t base_cycle = kNoBaseCycle;
  idx nx = 0, ny = 0, nz = 0;  ///< tile sample dims (edge tiles are smaller)
  std::uint32_t payload_crc = 0;  ///< CRC32 of the decoded sample bytes
  std::vector<std::uint8_t> bytes;  ///< RLE(raw) or RLE(raw XOR base)

  bool is_keyframe() const { return base_cycle == kNoBaseCycle; }
  std::size_t sample_count() const {
    return static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) *
           static_cast<std::size_t>(nz);
  }
};

/// Both Fig 1 products of one cycle, as dense fields (what the forecast
/// stage hands the publisher).
struct ProductFrame {
  Field3D<float> map_view;  ///< (nx, ny, 1) composite reflectivity
  Field3D<float> volume;    ///< (nx, ny, nz) reflectivity voxels
};

/// Number of tiles covering `n` columns with tile edge `tile_n`.
inline idx tile_count(idx n, idx tile_n) {
  return (n + tile_n - 1) / tile_n;
}

/// Cut one product field into raw (decoded) per-tile sample vectors, in
/// deterministic tile order (tx-major, then ty).  Samples within a tile are
/// ordered i-major, then j, then k — the column layout of Field3D.
std::vector<std::vector<float>> cut_tiles(const Field3D<float>& field,
                                          const TileGridConfig& cfg);

/// Encode one tile.  `base` (may be null) is the decoded sample vector of
/// the SAME tile at `base_cycle`; when present and the XOR delta compresses
/// smaller than the keyframe, a delta tile is produced, otherwise a
/// keyframe.  `force_keyframe` skips the delta attempt entirely.
EncodedTile encode_tile(const TileKey& key, std::uint64_t cycle, idx nx,
                        idx ny, idx nz, const std::vector<float>& samples,
                        const std::vector<float>* base,
                        std::int64_t base_cycle, bool force_keyframe);

/// Decode a tile back to its samples.  For delta tiles `base` must be the
/// decoded samples of `tile.base_cycle` and `base_cycle` must match the
/// tile's recorded base; any mismatch (wrong base cycle, wrong payload,
/// corrupt bytes) throws std::runtime_error — a wrong-base decode is
/// detected, never silently wrong.  For keyframes `base` is ignored.
std::vector<float> decode_tile(const EncodedTile& tile,
                               const std::vector<float>* base,
                               std::int64_t base_cycle);

}  // namespace bda::serve
