#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "util/binio.hpp"

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

// A version-1 envelope is refused by its magic alone — the rest of this
// one is intact — so a pre-CICHKPT2 checkpoint never parses as a
// version-2 payload.
TEST(CheckpointTest, RejectsVersionOneEnvelope) {
    std::string blob = encode_checkpoint("fp", "payload");
    blob.replace(0, kCheckpointMagic.size(), "CICHKPT1");
    std::string out = "untouched";
    EXPECT_FALSE(decode_checkpoint(blob, "fp", out));
    EXPECT_EQ(out, "untouched");

    const std::string path =
        ::testing::TempDir() + "checkpoint_test_version_one.ckpt";
    ASSERT_TRUE(util::atomic_write_file(path, blob));
    EXPECT_FALSE(read_checkpoint_file(path, "fp").has_value());
    std::remove(path.c_str());
}

}  // namespace
}  // namespace cichar::core
