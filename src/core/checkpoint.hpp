// Crash-safe checkpoint container. A checkpoint file wraps an opaque
// payload (the hunt or lot state blob) in a versioned envelope:
//
//   magic "CICHKPT3" | string fingerprint | u64 n | sealed(n payload bytes)
//
// (util::put_sealed: the payload followed by its seal64; the layout is
// in docs/FORMATS.md, "Binary envelope"). That seal is the one checksum
// over the whole payload: the hunt payload carries its trip cache as a
// bare body (TripPointCache::save_body) with no seal of its own.
// Version 1 nested a sealed cache file and version 2 sealed with FNV-1a
// over full cache records; their files fail the magic check and are
// refused like any other corrupt checkpoint.
// The fingerprint ties a checkpoint to the run configuration that wrote
// it (parameter name, seed, fault profile, ...): resuming with a
// different configuration is refused instead of silently producing a
// mixed-state run. Decoding NEVER throws and never partially applies —
// any truncation, bit flip, or mismatch yields "no checkpoint" and the
// caller starts cold.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace cichar::core {

inline constexpr std::string_view kCheckpointMagic = "CICHKPT3";

/// Wraps `payload` into the envelope.
[[nodiscard]] std::string encode_checkpoint(std::string_view fingerprint,
                                            std::string_view payload);

/// Unwraps `contents`. Returns false — leaving `payload_out` untouched —
/// when the magic, fingerprint, or checksum does not match or the
/// envelope is truncated/corrupt. Never throws.
[[nodiscard]] bool decode_checkpoint(std::string_view contents,
                                     std::string_view expected_fingerprint,
                                     std::string& payload_out);

/// encode + atomic write (temp file + rename): a crash mid-save leaves
/// the previous checkpoint intact. Returns success.
[[nodiscard]] bool write_checkpoint_file(const std::string& path,
                                         std::string_view fingerprint,
                                         std::string_view payload);

/// Reads and unwraps a checkpoint file; nullopt when the file is missing
/// or fails decode_checkpoint. Never throws.
[[nodiscard]] std::optional<std::string> read_checkpoint_file(
    const std::string& path, std::string_view fingerprint);

}  // namespace cichar::core
