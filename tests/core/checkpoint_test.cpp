#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace cichar::core {
namespace {

TEST(CheckpointTest, EncodeDecodeRoundTrip) {
    const std::string payload = "hunt state \0 with embedded nul";
    const std::string blob = encode_checkpoint("hunt:dvt:seed=7", payload);
    std::string out;
    ASSERT_TRUE(decode_checkpoint(blob, "hunt:dvt:seed=7", out));
    EXPECT_EQ(out, payload);
}

TEST(CheckpointTest, RejectsWrongFingerprint) {
    const std::string blob = encode_checkpoint("hunt:dvt:seed=7", "payload");
    std::string out = "untouched";
    EXPECT_FALSE(decode_checkpoint(blob, "hunt:dvt:seed=8", out));
    EXPECT_EQ(out, "untouched");
}

TEST(CheckpointTest, FileRoundTripAndMissingFile) {
    const std::string path = "checkpoint_test_roundtrip.ckpt";
    ASSERT_TRUE(write_checkpoint_file(path, "fp", "payload"));
    const auto loaded = read_checkpoint_file(path, "fp");
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, "payload");
    EXPECT_FALSE(read_checkpoint_file(path, "other-fp").has_value());
    std::remove(path.c_str());
    EXPECT_FALSE(read_checkpoint_file(path, "fp").has_value());
}

}  // namespace
}  // namespace cichar::core
