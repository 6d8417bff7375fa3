// Ablation: file I/O vs the in-memory exchange (SCALE <-> LETKF).
//
// Sec. 5: "the data transfer between SCALE and the LETKF was accelerated by
// replacing the original file I/O with parallel I/O using the MPI data
// transfer with RAM copy and node-to-node network communications without
// using files."  Both arms move an identical per-member prognostic payload
// through the code the repo really uses for each: a write_bdf + read_bdf
// file round trip, and the hpc::pack_range / unpack_range round trip that
// the sharded cycle's member<->domain shuffle (hpc::ShardedEngine) runs.
// google-benchmark reports the gap.  The projected paper-scale payload per
// cycle (1000 members x full state) is printed on exit.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>

#include "hpc/domain_decomp.hpp"
#include "scale/grid.hpp"
#include "scale/reference.hpp"
#include "scale/state.hpp"
#include "util/binary_io.hpp"

namespace {

using namespace bda;

std::vector<FieldRecord> member_payload() {
  // One member's prognostic fields at a scaled grid.
  scale::Grid g(32, 32, 24, 500.0f, 12000.0f);
  const auto ref = scale::ReferenceState::build(g, scale::convective_sounding());
  scale::State s(g);
  s.init_from_reference(g, ref);
  std::vector<FieldRecord> recs;
  auto pack = [&](const char* name, const RField3D& f, idx nlev) {
    Field3D<float> out(f.nx(), f.ny(), nlev, 0);
    for (idx i = 0; i < f.nx(); ++i)
      for (idx j = 0; j < f.ny(); ++j)
        for (idx k = 0; k < nlev; ++k) out(i, j, k) = f(i, j, k);
    recs.push_back({name, std::move(out)});
  };
  pack("dens", s.dens, g.nz());
  pack("momx", s.momx, g.nz());
  pack("momy", s.momy, g.nz());
  pack("momz", s.momz, g.nz() + 1);
  pack("rhot", s.rhot, g.nz());
  for (int t = 0; t < scale::kNumTracers; ++t)
    pack(scale::tracer_name(t), s.rhoq[t], g.nz());
  return recs;
}

const std::vector<FieldRecord>& payload() {
  static const auto p = member_payload();
  return p;
}

void BM_FileRoundTrip(benchmark::State& state) {
  const auto dir =
      std::filesystem::temp_directory_path() / "bda_bench_ablation_io";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "member_0.bdf").string();
  std::size_t bytes = 0;
  for (auto _ : state) {
    write_bdf(path, payload());
    auto back = read_bdf(path);
    benchmark::DoNotOptimize(back.data());
    bytes += std::filesystem::file_size(path);
  }
  state.SetBytesProcessed(int64_t(bytes));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_FileRoundTrip)->Unit(benchmark::kMillisecond);

void BM_PackUnpackRoundTrip(benchmark::State& state) {
  auto back = payload();  // destination fields of the same shapes
  std::size_t bytes = 0;
  for (auto _ : state) {
    for (std::size_t f = 0; f < payload().size(); ++f) {
      const auto& src = payload()[f].data;
      const hpc::Buffer buf = hpc::pack_range(src, 0, src.nx(), 0, src.ny());
      hpc::unpack_range(buf, back[f].data, 0, src.nx(), 0, src.ny());
      bytes += buf.size();
    }
    benchmark::DoNotOptimize(back.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(int64_t(bytes));
}
BENCHMARK(BM_PackUnpackRoundTrip)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  // Paper-scale payload the exchange must sustain every 30 s.
  const double member_mb =
      double(256ull * 256 * 60 * (5 + 6)) * 4.0 / 1.0e6;
  std::printf("\npaper-scale payload: %.0f MB/member x 1000 members = %.1f "
              "GB per 30-s cycle each way — why the file path had to go.\n",
              member_mb, member_mb);
  return 0;
}
