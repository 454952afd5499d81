// Golden oracle for the §IV-B2 "replacing model" retrain path.
//
// Each paper game is trained with the fleet's offline configuration
// (8 profiling / 40 corpus runs, seed 1111), then its predictor rotates
// DTC → RF → GBDT six times on one RNG (seed 5), so every algorithm is
// retrained twice. After every rotation the corpus-free bundle bytes are
// folded into an FNV-1a digest. The pinned digests were computed before
// any training speedup existed: an optimization of the learners must
// reproduce every retrained model bit for bit to keep them.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/offline.h"
#include "core/stage_predictor.h"
#include "game/library.h"

namespace cocg::core {
namespace {

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t rotation_digest(const std::string& game) {
  OfflineConfig cfg;
  cfg.profiling_runs = 8;
  cfg.corpus_runs = 40;
  cfg.seed = 1111;
  const game::GameSpec spec = game::game_by_name(game);
  TrainedGame tg = train_game(spec, cfg);
  EXPECT_TRUE(tg.predictor->can_retrain());

  Rng rng(5);
  std::uint64_t h = 1469598103934665603ULL;
  for (int i = 0; i < 6; ++i) {
    tg.predictor->replace_model(rng);
    std::ostringstream os;
    tg.predictor->save_bundle(os, /*include_corpus=*/false);
    h = fnv1a(h, os.str());
  }
  EXPECT_EQ(tg.predictor->model_kind(), ml::ModelKind::kDtc);
  return h;
}

TEST(RetrainOracle, Dota2SixRotations) {
  EXPECT_EQ(rotation_digest("DOTA2"), 0xa03fd5593acfcd5fULL);
}

TEST(RetrainOracle, CsgoSixRotations) {
  EXPECT_EQ(rotation_digest("CSGO"), 0x61b8a7b5797063b2ULL);
}

TEST(RetrainOracle, GenshinImpactSixRotations) {
  EXPECT_EQ(rotation_digest("Genshin Impact"), 0xdbf2c689d61c2cb3ULL);
}

TEST(RetrainOracle, DevilMayCrySixRotations) {
  EXPECT_EQ(rotation_digest("Devil May Cry"), 0x5135612e0b632c29ULL);
}

TEST(RetrainOracle, ContraSixRotations) {
  EXPECT_EQ(rotation_digest("Contra"), 0x8fe3b316398124e3ULL);
}

}  // namespace
}  // namespace cocg::core
