#include "core/database.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "testgen/random_gen.hpp"
#include "util/csv.hpp"

namespace cichar::core {

namespace {

constexpr const char* kMagic = "cichar-worstcase-db";
constexpr int kVersion = 1;

[[noreturn]] void malformed(const std::string& what) {
    throw std::runtime_error("worst-case db malformed: " + what);
}

std::string escape_name(const std::string& name) {
    std::string out;
    for (const char c : name) {
        if (c == ' ') out += "%20";
        else if (c == '%') out += "%25";
        else if (c == '\n' || c == '\r') out += "%0A";
        else out.push_back(c);
    }
    return out;
}

std::string unescape_name(const std::string& escaped) {
    std::string out;
    for (std::size_t i = 0; i < escaped.size(); ++i) {
        if (escaped[i] == '%' && i + 2 < escaped.size()) {
            const std::string code = escaped.substr(i + 1, 2);
            if (code == "20") out.push_back(' ');
            else if (code == "25") out.push_back('%');
            else if (code == "0A") out.push_back('\n');
            else malformed("bad escape");
            i += 2;
        } else {
            out.push_back(escaped[i]);
        }
    }
    return out;
}

void write_recipe(std::ostream& out, const testgen::PatternRecipe& r) {
    out << "recipe " << r.cycles << ' ' << util::format_double(r.write_fraction)
        << ' ' << util::format_double(r.nop_fraction) << ' '
        << util::format_double(r.burst_length) << ' '
        << util::format_double(r.row_locality) << ' '
        << util::format_double(r.bank_conflict_bias) << ' '
        << util::format_double(r.alternating_data_bias) << ' '
        << util::format_double(r.solid_data_bias) << ' '
        << util::format_double(r.toggle_bias) << ' '
        << util::format_double(r.control_activity) << ' ' << r.seed << '\n';
}

testgen::PatternRecipe read_recipe(std::istream& in) {
    std::string token;
    if (!(in >> token) || token != "recipe") malformed("expected recipe");
    testgen::PatternRecipe r;
    if (!(in >> r.cycles >> r.write_fraction >> r.nop_fraction >>
          r.burst_length >> r.row_locality >> r.bank_conflict_bias >>
          r.alternating_data_bias >> r.solid_data_bias >> r.toggle_bias >>
          r.control_activity >> r.seed)) {
        malformed("bad recipe fields");
    }
    // The ranges PatternRecipe::decode produces: anything else is a
    // corrupt or hand-edited file, and expanding it is undefined (a huge
    // burst_length overflows the generator's integer burst bound).
    const auto in_range = [](double v, double lo, double hi) {
        return std::isfinite(v) && v >= lo && v <= hi;
    };
    for (const double p : {r.write_fraction, r.nop_fraction, r.row_locality,
                           r.bank_conflict_bias, r.alternating_data_bias,
                           r.solid_data_bias, r.toggle_bias, r.control_activity}) {
        if (!in_range(p, 0.0, 1.0)) malformed("recipe probability out of range");
    }
    if (!in_range(r.burst_length, 1.0, 16.0)) {
        malformed("recipe burst_length out of range");
    }
    // An unsigned extraction wraps "-1" to 4294967295 cycles.
    if (r.cycles < 1 || r.cycles > testgen::kMaxPatternCycles) {
        malformed("recipe cycles out of range");
    }
    return r;
}

void write_conditions(std::ostream& out, const testgen::TestConditions& c) {
    out << "cond " << util::format_double(c.vdd_volts) << ' '
        << util::format_double(c.temperature_c) << ' '
        << util::format_double(c.clock_period_ns) << ' '
        << util::format_double(c.output_load_pf) << '\n';
}

testgen::TestConditions read_conditions(std::istream& in) {
    std::string token;
    if (!(in >> token) || token != "cond") malformed("expected cond");
    testgen::TestConditions c;
    if (!(in >> c.vdd_volts >> c.temperature_c >> c.clock_period_ns >>
          c.output_load_pf)) {
        malformed("bad condition fields");
    }
    return c;
}

}  // namespace

void WorstCaseDatabase::add(WorstCaseEntry entry) {
    // Insert *after* existing entries of equal WCR (upper_bound): ties
    // keep arrival order, so save() -> load() -> add()-in-file-order
    // reproduces the exact sequence. With a before-ties insert, every
    // checkpoint round trip reversed each tied group and a resumed hunt
    // rendered a different (same-content, different-order) database
    // than an uninterrupted one.
    const auto pos = std::upper_bound(
        entries_.begin(), entries_.end(), entry,
        [](const WorstCaseEntry& a, const WorstCaseEntry& b) {
            return a.wcr > b.wcr;
        });
    entries_.insert(pos, std::move(entry));
    if (entries_.size() > capacity_) entries_.resize(capacity_);
}

void WorstCaseDatabase::add_functional_failure(FunctionalFailureRecord record) {
    functional_failures_.push_back(std::move(record));
}

const WorstCaseEntry& WorstCaseDatabase::worst() const {
    if (entries_.empty()) {
        throw std::logic_error("WorstCaseDatabase::worst(): empty database");
    }
    return entries_.front();
}

void WorstCaseDatabase::save_csv(std::ostream& out) const {
    util::CsvWriter csv(out);
    csv.row({"name", "wcr", "class", "trip_point", "vdd_v", "temperature_c",
             "clock_period_ns", "output_load_pf", "recipe"});
    for (const WorstCaseEntry& e : entries_) {
        csv.row(std::vector<std::string>{
            e.name, util::format_double(e.wcr), ga::to_string(e.wcr_class),
            util::format_double(e.trip_point),
            util::format_double(e.conditions.vdd_volts),
            util::format_double(e.conditions.temperature_c),
            util::format_double(e.conditions.clock_period_ns),
            util::format_double(e.conditions.output_load_pf),
            e.recipe.describe()});
    }
}

void WorstCaseDatabase::save_functional_csv(std::ostream& out) const {
    util::CsvWriter csv(out);
    csv.row({"name", "miscompares", "first_fail_cycle", "vdd_v", "recipe"});
    for (const FunctionalFailureRecord& r : functional_failures_) {
        csv.row(std::vector<std::string>{
            r.name, std::to_string(r.miscompares),
            std::to_string(r.first_fail_cycle),
            util::format_double(r.conditions.vdd_volts), r.recipe.describe()});
    }
}

void WorstCaseDatabase::save(std::ostream& out) const {
    out << kMagic << ' ' << kVersion << '\n';
    out << "capacity " << capacity_ << '\n';
    out << "entries " << entries_.size() << '\n';
    for (const WorstCaseEntry& e : entries_) {
        out << "entry " << escape_name(e.name) << ' '
            << util::format_double(e.wcr) << ' '
            << util::format_double(e.trip_point) << ' '
            << static_cast<int>(e.wcr_class) << '\n';
        write_recipe(out, e.recipe);
        write_conditions(out, e.conditions);
    }
    out << "failures " << functional_failures_.size() << '\n';
    for (const FunctionalFailureRecord& f : functional_failures_) {
        out << "failure " << escape_name(f.name) << ' ' << f.miscompares
            << ' ' << f.first_fail_cycle << '\n';
        write_recipe(out, f.recipe);
        write_conditions(out, f.conditions);
    }
}

WorstCaseDatabase WorstCaseDatabase::load(std::istream& in) {
    std::string token;
    if (!(in >> token) || token != kMagic) malformed("bad magic");
    int version = 0;
    if (!(in >> version) || version != kVersion) malformed("bad version");
    if (!(in >> token) || token != "capacity") malformed("expected capacity");
    std::size_t capacity = 0;
    if (!(in >> capacity) || capacity == 0) malformed("bad capacity");
    WorstCaseDatabase db(capacity);

    if (!(in >> token) || token != "entries") malformed("expected entries");
    std::size_t entry_count = 0;
    if (!(in >> entry_count)) malformed("bad entry count");
    for (std::size_t i = 0; i < entry_count; ++i) {
        if (!(in >> token) || token != "entry") malformed("expected entry");
        WorstCaseEntry e;
        std::string escaped;
        int cls = 0;
        if (!(in >> escaped >> e.wcr >> e.trip_point >> cls)) {
            malformed("bad entry fields");
        }
        if (cls < 0 || cls > 2) malformed("bad class");
        e.name = unescape_name(escaped);
        e.wcr_class = static_cast<ga::WcrClass>(cls);
        e.recipe = read_recipe(in);
        e.conditions = read_conditions(in);
        db.add(std::move(e));
    }

    if (!(in >> token) || token != "failures") malformed("expected failures");
    std::size_t failure_count = 0;
    if (!(in >> failure_count)) malformed("bad failure count");
    for (std::size_t i = 0; i < failure_count; ++i) {
        if (!(in >> token) || token != "failure") malformed("expected failure");
        FunctionalFailureRecord f;
        std::string escaped;
        if (!(in >> escaped >> f.miscompares >> f.first_fail_cycle)) {
            malformed("bad failure fields");
        }
        f.name = unescape_name(escaped);
        f.recipe = read_recipe(in);
        f.conditions = read_conditions(in);
        db.add_functional_failure(std::move(f));
    }
    return db;
}

}  // namespace cichar::core
