// Transistor-level word-parallel RESET (Fig. 6 / §4.2 multi-bit claim): one
// word line, one shared SL pulse, one terminated bit line per bit — a thin
// configuration of the full-bank write path.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "array/bank_write_path.hpp"
#include "array/write_path.hpp"
#include "util/error.hpp"

namespace oxmlc::array {
namespace {

// One column per reference current, each with a full 1 Kbit-deep (1 pF) BL.
BankWritePathConfig word_config(const std::vector<double>& irefs) {
  BankWritePathConfig config;
  config.columns = irefs.size();
  config.rows = 1024;
  config.irefs = irefs;
  config.pulse_width = 8e-6;
  config.t_stop = 8.2e-6;
  return config;
}

TEST(WordPath, RejectsBadConfig) {
  BankWritePathConfig empty = word_config({});
  EXPECT_THROW(BankWritePath{empty}, InvalidArgumentError);

  BankWritePathConfig extra_irefs = word_config({10e-6, 20e-6});
  extra_irefs.columns = 1;
  EXPECT_THROW(BankWritePath{extra_irefs}, InvalidArgumentError);

  BankWritePathConfig extra_gaps = word_config({10e-6});
  extra_gaps.initial_gaps = {0.3e-9, 0.3e-9};
  EXPECT_THROW(BankWritePath{extra_gaps}, InvalidArgumentError);
}

TEST(WordPath, ThreeBitsTerminateIndependently) {
  const BankWritePathResult result =
      BankWritePath(word_config({36e-6, 20e-6, 8e-6})).run();

  ASSERT_EQ(result.columns.size(), 3u);
  for (const auto& bit : result.columns) EXPECT_TRUE(bit.terminated);

  // Each bit lands in its own level band, ordered by reference current.
  const auto& bits = result.columns;
  EXPECT_LT(bits[0].final_resistance, bits[1].final_resistance);
  EXPECT_LT(bits[1].final_resistance, bits[2].final_resistance);
  EXPECT_GT(bits[0].final_resistance, 20e3);
  EXPECT_LT(bits[0].final_resistance, 60e3);
  EXPECT_GT(bits[2].final_resistance, 150e3);
  EXPECT_LT(bits[2].final_resistance, 350e3);

  // Stops are sequential (higher reference terminates earlier), so the word
  // latency is the slowest bit's.
  EXPECT_LT(bits[0].t_terminate, bits[1].t_terminate);
  EXPECT_LT(bits[1].t_terminate, bits[2].t_terminate);
  const double word_latency =
      std::max({bits[0].t_terminate, bits[1].t_terminate, bits[2].t_terminate});
  EXPECT_DOUBLE_EQ(word_latency, bits[2].t_terminate);
}

TEST(WordPath, EarlyStopDoesNotDisturbNeighbours) {
  // A bit that terminates almost immediately (already deep) must not shift
  // the final level of the slow bit sharing the SL.
  const double r_lone =
      BankWritePath(word_config({10e-6})).run().columns[0].final_resistance;

  const BankWritePathResult result = BankWritePath(word_config({36e-6, 10e-6})).run();
  ASSERT_TRUE(result.columns[0].terminated);
  ASSERT_TRUE(result.columns[1].terminated);
  EXPECT_NEAR(result.columns[1].final_resistance / r_lone, 1.0, 0.05);
}

TEST(WordPath, InhibitedBitSurvivesSlFall) {
  // After a bit's select gate opens, its ~1 pF of stored BL charge must not
  // SET the cell when the shared SL falls, and the inhibit clamp must not
  // keep RESETTING it either. Every bit's level must be the same whether the
  // run stops just before the SL fall or well after it. Without the clamp
  // the 6 uA bit falls back to LRS (~12 kOhm against ~330 kOhm).
  BankWritePathConfig config = word_config({36e-6, 6e-6});
  config.pulse_width = 6e-6;
  config.t_stop = 5.9e-6;  // before the SL fall
  const BankWritePathResult before = BankWritePath(config).run();
  config.t_stop = 6.5e-6;  // well past the SL fall
  const BankWritePathResult after = BankWritePath(config).run();

  for (std::size_t j = 0; j < config.columns; ++j) {
    ASSERT_TRUE(before.columns[j].terminated) << "bit " << j;
    EXPECT_NEAR(after.columns[j].final_resistance / before.columns[j].final_resistance,
                1.0, 0.02)
        << "bit " << j;
  }
}

TEST(WordPath, MatchesSingleBitWritePath) {
  // One-bit word == the dedicated single-bit testbench, within the column
  // select's series drop.
  const BankWritePathResult word = BankWritePath(word_config({20e-6})).run();
  const double r_word = word.columns[0].final_resistance;

  WritePathConfig single;
  single.iref = 20e-6;
  single.pulse_width = 8e-6;
  single.t_stop = 3e-6;
  WritePath single_path(single);
  const double r_single = single_path.run().final_resistance;

  EXPECT_NEAR(r_word / r_single, 1.0, 0.10);
}

}  // namespace
}  // namespace oxmlc::array
