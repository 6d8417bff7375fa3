#include "serve/tile.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/binary_io.hpp"
#include "util/codec.hpp"

namespace bda::serve {

namespace {

/// Raw little-layout sample bytes of a tile (memcpy through bda::io — the
/// repo's single sanctioned punning route).
std::vector<std::uint8_t> sample_bytes(const std::vector<float>& samples) {
  std::vector<std::uint8_t> buf;
  buf.reserve(samples.size() * sizeof(float));
  io::append_raw(buf, samples.data(), samples.size());
  return buf;
}

std::vector<float> bytes_to_samples(const std::vector<std::uint8_t>& bytes,
                                    std::size_t n) {
  if (bytes.size() != n * sizeof(float))
    throw std::runtime_error("serve::decode_tile: payload size mismatch");
  std::vector<float> out(n);
  std::size_t pos = 0;
  io::take_raw(bytes, pos, out.data(), n, "serve::decode_tile");
  return out;
}

}  // namespace

std::vector<std::vector<float>> cut_tiles(const Field3D<float>& field,
                                          const TileGridConfig& cfg) {
  const idx tiles_x = tile_count(field.nx(), cfg.tile_nx);
  const idx tiles_y = tile_count(field.ny(), cfg.tile_ny);
  std::vector<std::vector<float>> out;
  out.reserve(static_cast<std::size_t>(tiles_x * tiles_y));
  for (idx tx = 0; tx < tiles_x; ++tx)
    for (idx ty = 0; ty < tiles_y; ++ty) {
      const idx i0 = tx * cfg.tile_nx;
      const idx j0 = ty * cfg.tile_ny;
      const idx ni = std::min(cfg.tile_nx, field.nx() - i0);
      const idx nj = std::min(cfg.tile_ny, field.ny() - j0);
      std::vector<float> samples;
      samples.reserve(
          static_cast<std::size_t>(ni * nj * field.nz()));
      for (idx i = i0; i < i0 + ni; ++i)
        for (idx j = j0; j < j0 + nj; ++j) {
          const auto col = field.column(i, j);
          samples.insert(samples.end(), col.begin(), col.end());
        }
      out.push_back(std::move(samples));
    }
  return out;
}

EncodedTile encode_tile(const TileKey& key, std::uint64_t cycle, idx nx,
                        idx ny, idx nz, const std::vector<float>& samples,
                        const std::vector<float>* base,
                        std::int64_t base_cycle, bool force_keyframe) {
  if (samples.size() != static_cast<std::size_t>(nx) *
                            static_cast<std::size_t>(ny) *
                            static_cast<std::size_t>(nz))
    throw std::runtime_error("serve::encode_tile: sample/dims mismatch");

  EncodedTile t;
  t.key = key;
  t.cycle = cycle;
  t.nx = nx;
  t.ny = ny;
  t.nz = nz;

  const std::vector<std::uint8_t> raw = sample_bytes(samples);
  t.payload_crc = crc32(raw.data(), raw.size());

  std::vector<std::uint8_t> keyframe = encode_rle(raw);
  if (!force_keyframe && base != nullptr && base->size() == samples.size()) {
    std::vector<std::uint8_t> xored = raw;
    const std::vector<std::uint8_t> base_raw = sample_bytes(*base);
    for (std::size_t b = 0; b < xored.size(); ++b) xored[b] ^= base_raw[b];
    std::vector<std::uint8_t> delta = encode_rle(xored);
    if (delta.size() < keyframe.size()) {
      t.base_cycle = base_cycle;
      t.bytes = std::move(delta);
      return t;
    }
  }
  t.base_cycle = kNoBaseCycle;
  t.bytes = std::move(keyframe);
  return t;
}

std::vector<float> decode_tile(const EncodedTile& tile,
                               const std::vector<float>* base,
                               std::int64_t base_cycle) {
  std::vector<std::uint8_t> raw = decode_rle(tile.bytes);
  if (!tile.is_keyframe()) {
    if (base == nullptr)
      throw std::runtime_error(
          "serve::decode_tile: delta tile decoded without a base");
    if (base_cycle != tile.base_cycle)
      throw std::runtime_error(
          "serve::decode_tile: base cycle mismatch (tile is based on cycle " +
          std::to_string(tile.base_cycle) + ", got " +
          std::to_string(base_cycle) + ")");
    if (base->size() * sizeof(float) != raw.size())
      throw std::runtime_error(
          "serve::decode_tile: base size mismatch for delta tile");
    const std::vector<std::uint8_t> base_raw = sample_bytes(*base);
    for (std::size_t b = 0; b < raw.size(); ++b) raw[b] ^= base_raw[b];
  }
  if (crc32(raw.data(), raw.size()) != tile.payload_crc)
    throw std::runtime_error(
        "serve::decode_tile: payload CRC mismatch (corrupt tile or wrong "
        "delta base)");
  return bytes_to_samples(raw, tile.sample_count());
}

}  // namespace bda::serve
