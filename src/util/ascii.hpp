// ASCII rendering for bench output: aligned tables (paper-style result
// tables) and 2-D character grids (shmoo plots, search traces).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace cichar::util {

/// Column-aligned text table with a header row, rendered with box-drawing
/// in plain ASCII so bench output is diff-able.
class TextTable {
public:
    explicit TextTable(std::vector<std::string> header);

    /// Appends a data row; it may have fewer cells than the header
    /// (missing cells render empty) but not more.
    void add_row(std::vector<std::string> row);

    /// Convenience: formats doubles to `precision` decimals.
    void add_row(std::string_view label, const std::vector<double>& values,
                 int precision = 3);

    [[nodiscard]] std::string render() const;

    [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/// Fixed-size character canvas addressed as (column, row) with row 0 at the
/// TOP. Used for shmoo plots and trip-point trace sketches.
class CharGrid {
public:
    CharGrid(std::size_t width, std::size_t height, char fill = ' ');

    [[nodiscard]] std::size_t width() const noexcept { return width_; }
    [[nodiscard]] std::size_t height() const noexcept { return height_; }

    /// Out-of-range writes are ignored (plots clip instead of crashing).
    void set(std::size_t x, std::size_t y, char c) noexcept;
    [[nodiscard]] char at(std::size_t x, std::size_t y) const noexcept;

    /// Renders with an optional left margin of row labels (one per row).
    [[nodiscard]] std::string render(
        const std::vector<std::string>& row_labels = {}) const;

private:
    std::size_t width_;
    std::size_t height_;
    std::vector<char> cells_;
};

/// Formats `value` with fixed `precision` decimals.
[[nodiscard]] std::string fixed(double value, int precision = 3);

/// Horizontal bar of `#` characters scaled so that `full_scale` maps to
/// `max_width` characters; negative values render empty.
[[nodiscard]] std::string bar(double value, double full_scale,
                              std::size_t max_width = 40);

/// `s` as the body of a JSON string literal: `"` and `\` are
/// backslash-escaped and every other control character is written as
/// `\u00XX`.
[[nodiscard]] std::string escape_json(std::string_view s);

}  // namespace cichar::util
