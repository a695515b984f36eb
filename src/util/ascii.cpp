#include "util/ascii.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>

namespace cichar::util {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> row) {
    assert(row.size() <= header_.size());
    row.resize(header_.size());
    rows_.push_back(std::move(row));
}

void TextTable::add_row(std::string_view label,
                        const std::vector<double>& values, int precision) {
    std::vector<std::string> row;
    row.reserve(values.size() + 1);
    row.emplace_back(label);
    for (const double v : values) row.push_back(fixed(v, precision));
    add_row(std::move(row));
}

std::string TextTable::render() const {
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) {
        widths[c] = header_[c].size();
        for (const auto& row : rows_) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }
    std::ostringstream out;
    const auto rule = [&] {
        out << '+';
        for (const std::size_t w : widths) {
            out << std::string(w + 2, '-') << '+';
        }
        out << '\n';
    };
    const auto line = [&](const std::vector<std::string>& cells) {
        out << '|';
        for (std::size_t c = 0; c < cells.size(); ++c) {
            out << ' ' << cells[c]
                << std::string(widths[c] - cells[c].size() + 1, ' ') << '|';
        }
        out << '\n';
    };
    rule();
    line(header_);
    rule();
    for (const auto& row : rows_) line(row);
    rule();
    return out.str();
}

CharGrid::CharGrid(std::size_t width, std::size_t height, char fill)
    : width_(width), height_(height), cells_(width * height, fill) {}

void CharGrid::set(std::size_t x, std::size_t y, char c) noexcept {
    if (x >= width_ || y >= height_) return;
    cells_[y * width_ + x] = c;
}

char CharGrid::at(std::size_t x, std::size_t y) const noexcept {
    if (x >= width_ || y >= height_) return '\0';
    return cells_[y * width_ + x];
}

std::string CharGrid::render(const std::vector<std::string>& row_labels) const {
    std::size_t label_width = 0;
    for (const auto& label : row_labels) {
        label_width = std::max(label_width, label.size());
    }
    std::string out;
    out.reserve((width_ + label_width + 3) * height_);
    for (std::size_t y = 0; y < height_; ++y) {
        if (!row_labels.empty()) {
            const std::string& label =
                y < row_labels.size() ? row_labels[y] : std::string();
            out += label;
            out += std::string(label_width - label.size(), ' ');
            out += " |";
        }
        out.append(&cells_[y * width_], width_);
        out += '\n';
    }
    return out;
}

std::string fixed(double value, int precision) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

std::string bar(double value, double full_scale, std::size_t max_width) {
    if (value <= 0.0 || full_scale <= 0.0) return {};
    const double frac = std::min(1.0, value / full_scale);
    const auto n =
        static_cast<std::size_t>(frac * static_cast<double>(max_width) + 0.5);
    return std::string(n, '#');
}

std::string escape_json(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

}  // namespace cichar::util
