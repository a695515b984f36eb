#include "core/checkpoint.hpp"

#include <exception>

#include "util/binio.hpp"
#include "util/crash_point.hpp"

namespace cichar::core {

std::string encode_checkpoint(std::string_view fingerprint,
                              std::string_view payload) {
    std::string out;
    out.reserve(kCheckpointMagic.size() + fingerprint.size() +
                payload.size() + 32);
    out.append(kCheckpointMagic);
    util::put_string(out, fingerprint);
    util::put_u64(out, payload.size());
    util::put_sealed(out, payload);
    return out;
}

bool decode_checkpoint(std::string_view contents,
                       std::string_view expected_fingerprint,
                       std::string& payload_out) {
    try {
        util::ByteReader in(contents);
        in.expect_magic(kCheckpointMagic);
        if (in.get_string() != expected_fingerprint) return false;
        const std::string_view payload = in.get_sealed(in.get_u64());
        if (!in.at_end()) return false;  // trailing garbage
        payload_out = payload;
        return true;
    } catch (const std::exception&) {
        return false;  // truncated / corrupt envelope
    }
}

bool write_checkpoint_file(const std::string& path,
                           std::string_view fingerprint,
                           std::string_view payload) {
    CICHAR_CRASH_POINT("core.checkpoint.pre_write");
    const bool ok = util::atomic_write_file(
        path, encode_checkpoint(fingerprint, payload));
    CICHAR_CRASH_POINT("core.checkpoint.post_write");
    return ok;
}

std::optional<std::string> read_checkpoint_file(const std::string& path,
                                                std::string_view fingerprint) {
    const std::optional<std::string> contents = util::read_file(path);
    if (!contents.has_value()) return std::nullopt;
    std::string payload;
    if (!decode_checkpoint(*contents, fingerprint, payload)) {
        return std::nullopt;
    }
    return payload;
}

}  // namespace cichar::core
