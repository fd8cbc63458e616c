// Bit-exactness pins for the synthetic generator and the core clock.
//
// The generator's per-op arithmetic (mean gap, line counts, phase rotation,
// stream/stride cursors) and CoreModel's cycle accounting are precomputed for
// speed; these tests prove the precomputation changed no output bit. The
// generator digests were captured from the division-per-op implementation:
// any drift in an address, a gap, a write flag or the phase counter changes
// them.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "plrupart/sim/core_model.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"

namespace plrupart {
namespace {

constexpr std::uint64_t kOps = 1'000'000;

/// FNV-1a over every field of the first `ops` records plus the phase counter.
std::uint64_t digest(workloads::SyntheticTrace& t, std::uint64_t ops) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (std::uint64_t i = 0; i < ops; ++i) {
    const sim::MemOp op = t.next();
    mix(op.addr);
    mix(op.gap_instrs);
    mix(op.write ? 1 : 0);
    mix(t.phase());
  }
  mix(t.ops_emitted());
  return h;
}

// clang-format off
const std::map<std::string, std::uint64_t> kGolden = {
    {"applu@1", 0x186a56084afec90fULL},
    {"applu@20261017", 0x581bf1a95543850ULL},
    {"apsi@1", 0xcdb7980e5bc684f7ULL},
    {"apsi@20261017", 0xac939e8b8c04ee81ULL},
    {"art@1", 0x6ff7dce3b2b0a391ULL},
    {"art@20261017", 0xab107e2056231e2ULL},
    {"bzip2@1", 0x123e6c375164be57ULL},
    {"bzip2@20261017", 0x40dad3f7afd2178dULL},
    {"crafty@1", 0xadabbad3011f3264ULL},
    {"crafty@20261017", 0xc79ce9bce47432b3ULL},
    {"eon@1", 0xf4557c06b0c654cdULL},
    {"eon@20261017", 0xdc68c1bd6eb543f4ULL},
    {"equake@1", 0xf03748345ddd11d5ULL},
    {"equake@20261017", 0xca92639554074ea6ULL},
    {"facerec@1", 0xc0494befa4c3a584ULL},
    {"facerec@20261017", 0x3d3a734464026e4fULL},
    {"fma3d@1", 0x9bc148818d286ffeULL},
    {"fma3d@20261017", 0x3c5a27c27529d9f5ULL},
    {"galgel@1", 0x6abe2b489e9ad239ULL},
    {"galgel@20261017", 0x4544e3e689fddbffULL},
    {"gap@1", 0xf2e48a99a61ac0c2ULL},
    {"gap@20261017", 0x2c4d19575791fa5eULL},
    {"gcc@1", 0x81a2dfaf33efb526ULL},
    {"gcc@20261017", 0xb6cdfe8a53c93ca1ULL},
    {"gzip@1", 0x13589821c05d4d9cULL},
    {"gzip@20261017", 0x1a21c337081d057bULL},
    {"lucas@1", 0xe4dab1f6042cba8fULL},
    {"lucas@20261017", 0xcd054c3058a8c303ULL},
    {"mcf@1", 0x65b590349154cdf8ULL},
    {"mcf@20261017", 0x8d1d49ad123bc0b0ULL},
    {"mesa@1", 0x565cef1185258f35ULL},
    {"mesa@20261017", 0xc38d0e156eb4d87eULL},
    {"mgrid@1", 0x74075a8fb41020eeULL},
    {"mgrid@20261017", 0x3d858f5ce2909fd8ULL},
    {"parser@1", 0x70b3dfb90dc55f93ULL},
    {"parser@20261017", 0x40506d553b511985ULL},
    {"perlbmk@1", 0x8aeacb04cf8ea6a5ULL},
    {"perlbmk@20261017", 0xe774a53845fb6b6cULL},
    {"phasey", 0x7a54de62d1179454ULL},
    {"sixtrack@1", 0xb5538ee428b413bULL},
    {"sixtrack@20261017", 0xf4cf38afcbbcf1a1ULL},
    {"swim@1", 0x7387d5b22c1c8bedULL},
    {"swim@20261017", 0xcf7906938b77ec0aULL},
    {"twolf@1", 0x65b2af7aa5a8d996ULL},
    {"twolf@20261017", 0xcd120894ab6d1079ULL},
    {"vortex@1", 0x4308619d0c55daa6ULL},
    {"vortex@20261017", 0xc4ba5e93098336dcULL},
    {"vpr@1", 0x4126820b7507707ULL},
    {"vpr@20261017", 0x3d9bc56cb8fb3e2eULL},
    {"wupwise@1", 0xd50c0a49fd2162b6ULL},
    {"wupwise@20261017", 0xf1379649582286d5ULL},
};
// clang-format on

TEST(GeneratorGolden, CatalogStreamsMatchCapturedDigests) {
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{20261017}}) {
    for (const auto& profile : workloads::catalog()) {
      const std::string key = profile.name + "@" + std::to_string(seed);
      auto t = workloads::make_trace(profile, 3, seed);
      const std::uint64_t d = digest(*t, kOps);
      const auto it = kGolden.find(key);
      ASSERT_NE(it, kGolden.end()) << "no golden for {\"" << key << "\", 0x" << std::hex << d
                                   << "ULL},";
      EXPECT_EQ(d, it->second) << key << ": got 0x" << std::hex << d;
      EXPECT_EQ(t->ops_emitted(), kOps);
    }
  }
}

TEST(GeneratorGolden, FastPhaseRotationAndOddStridesMatchCapturedDigest) {
  // The catalog's phase periods exceed 1M ops; this profile rotates every
  // 1000 ops over four components of every pattern kind, with a stride that
  // does not divide its region, so the incremental phase and cursor updates
  // wrap many times.
  workloads::BenchmarkProfile p;
  p.name = "phasey";
  p.mem_fraction = 0.37;
  p.write_fraction = 0.21;
  p.phase_period_ops = 1000;
  p.l1_fraction = 0.4;
  p.l1_region_bytes = 8 * 1024;
  p.components = {
      {.kind = workloads::PatternKind::kSequentialStream, .region_bytes = 40 * 128, .weight = 1.0},
      {.kind = workloads::PatternKind::kStridedLoop,
       .region_bytes = 77 * 128,
       .stride_bytes = 5 * 128,
       .weight = 2.0},
      {.kind = workloads::PatternKind::kRandomRegion, .region_bytes = 1000 * 128, .weight = 0.5,
       .skew = 2.5},
      {.kind = workloads::PatternKind::kPointerChase, .region_bytes = 300 * 128, .weight = 1.5},
  };
  workloads::SyntheticTrace t(p, 1ULL << 40, 77);
  const std::uint64_t d = digest(t, 200'000);
  const auto it = kGolden.find("phasey");
  ASSERT_NE(it, kGolden.end()) << "no golden for {\"phasey\", 0x" << std::hex << d << "ULL},";
  EXPECT_EQ(d, it->second) << "got 0x" << std::hex << d;
  EXPECT_EQ(t.phase(), 200u);
  t.reset();
  EXPECT_EQ(digest(t, 200'000), d) << "reset must replay the identical stream";
}

TEST(CoreModelExactness, CyclesMatchTheDivisionFormulaForEveryGap) {
  for (const double ipc : {2.0, 1.7, 0.9, 3.3}) {
    const sim::CoreParams params{.base_ipc = ipc, .l2_hit_penalty = 11, .mem_penalty = 250,
                                 .stall_fraction = 0.63};
    sim::CoreModel m(params);
    double cycles = 0.0;
    std::uint64_t instr = 0;
    for (std::uint32_t gap = 0; gap <= 64; ++gap) {
      for (const auto level :
           {sim::AccessLevel::kL1, sim::AccessLevel::kL2, sim::AccessLevel::kMemory}) {
        m.commit_gap(gap);
        cycles += static_cast<double>(gap) / ipc;
        m.commit_mem(level);
        cycles += 1.0 / ipc;
        if (level == sim::AccessLevel::kL2) cycles += params.l2_hit_penalty * params.stall_fraction;
        if (level == sim::AccessLevel::kMemory) cycles += params.mem_penalty * params.stall_fraction;
        instr += gap + 1;
        ASSERT_EQ(m.cycles(), cycles) << "ipc=" << ipc << " gap=" << gap;
        ASSERT_EQ(m.instructions(), instr);
        EXPECT_EQ(m.gap_cycles(gap + 1), (static_cast<double>(gap) + 1.0) / ipc);
      }
    }
    m.commit_gap(1000);  // beyond any small-gap table
    cycles += 1000.0 / ipc;
    EXPECT_EQ(m.cycles(), cycles);
  }
}

}  // namespace
}  // namespace plrupart
