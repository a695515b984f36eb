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
    util::put_string(out, payload);
    util::put_u64(out, util::checksum64(payload));
    return out;
}

bool decode_checkpoint(std::string_view contents,
                       std::string_view expected_fingerprint,
                       std::string& payload_out) {
    if (contents.size() < kCheckpointMagic.size() ||
        contents.substr(0, kCheckpointMagic.size()) != kCheckpointMagic) {
        return false;
    }
    try {
        util::ByteReader in(contents.substr(kCheckpointMagic.size()));
        const std::string fingerprint = in.get_string();
        if (fingerprint != expected_fingerprint) return false;
        std::string payload = in.get_string(1ULL << 30);
        const std::uint64_t checksum = in.get_u64();
        if (!in.at_end()) return false;  // trailing garbage
        if (checksum != util::checksum64(payload)) return false;
        payload_out = std::move(payload);
        return true;
    } catch (const std::exception&) {
        return false;  // truncated / corrupt envelope
    }
}

std::optional<std::string> peek_checkpoint_fingerprint(
    std::string_view contents) {
    if (contents.size() < kCheckpointMagic.size() ||
        contents.substr(0, kCheckpointMagic.size()) != kCheckpointMagic) {
        return std::nullopt;
    }
    try {
        util::ByteReader in(contents.substr(kCheckpointMagic.size()));
        return in.get_string();
    } catch (const std::exception&) {
        return std::nullopt;
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
