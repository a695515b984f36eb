#include "core/model_io.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "nn/weights_io.hpp"
#include "util/binio.hpp"
#include "util/csv.hpp"

namespace cichar::core {
namespace {

constexpr const char* kMagic = "cichar-learned-model";
constexpr int kVersion = 1;

[[noreturn]] void malformed(const std::string& what) {
    throw std::runtime_error("model file malformed: " + what);
}

}  // namespace

void save_model(std::ostream& out, const LearnedModel& model) {
    const ate::Parameter& p = model.parameter();
    const testgen::RandomGeneratorOptions& g = model.generator_options();
    const testgen::ConditionBounds& b = g.condition_bounds;

    out << kMagic << ' ' << kVersion << '\n';
    out << "parameter " << p.name << ' ' << p.unit << ' '
        << static_cast<int>(p.kind) << ' ' << util::format_double(p.spec)
        << ' ' << static_cast<int>(p.spec_type) << ' '
        << (p.fail_high ? 1 : 0) << ' '
        << util::format_double(p.search_start) << ' '
        << util::format_double(p.search_end) << ' '
        << util::format_double(p.resolution) << '\n';
    out << "coding " << fuzzy::to_string(model.coder().scheme()) << '\n';
    out << "generator " << g.min_cycles << ' ' << g.max_cycles << '\n';
    out << "bounds " << util::format_double(b.vdd_min) << ' '
        << util::format_double(b.vdd_max) << ' '
        << util::format_double(b.temperature_min) << ' '
        << util::format_double(b.temperature_max) << ' '
        << util::format_double(b.clock_period_min_ns) << ' '
        << util::format_double(b.clock_period_max_ns) << ' '
        << util::format_double(b.output_load_min_pf) << ' '
        << util::format_double(b.output_load_max_pf) << '\n';
    nn::save_committee(out, model.committee());
    if (!out) throw std::ios_base::failure("save_model: write failed");
}

LearnedModel load_model(std::istream& in) {
    std::string token;
    if (!(in >> token) || token != kMagic) malformed("bad magic");
    int version = 0;
    if (!(in >> version) || version != kVersion) malformed("bad version");

    if (!(in >> token) || token != "parameter") malformed("expected parameter");
    ate::Parameter p;
    int kind = 0;
    int spec_type = 0;
    int fail_high = 0;
    if (!(in >> p.name >> p.unit >> kind >> p.spec >> spec_type >>
          fail_high >> p.search_start >> p.search_end >> p.resolution)) {
        malformed("bad parameter fields");
    }
    if (kind < 0 || kind > 2 || spec_type < 0 || spec_type > 1) {
        malformed("bad parameter enums");
    }
    p.kind = static_cast<device::ParameterKind>(kind);
    p.spec_type = static_cast<ate::SpecType>(spec_type);
    p.fail_high = fail_high != 0;

    if (!(in >> token) || token != "coding") malformed("expected coding");
    std::string scheme;
    if (!(in >> scheme)) malformed("missing coding scheme");
    fuzzy::TripPointCoder coder =
        scheme == "fuzzy"
            ? fuzzy::TripPointCoder::fuzzy_wcr_fine()
            : (scheme == "numeric"
                   ? fuzzy::TripPointCoder::numeric(0.0, 1.3)
                   : throw std::runtime_error(
                         "model file malformed: unknown coding " + scheme));

    if (!(in >> token) || token != "generator") malformed("expected generator");
    testgen::RandomGeneratorOptions g;
    if (!(in >> g.min_cycles >> g.max_cycles)) malformed("bad generator");
    if (g.min_cycles == 0 || g.min_cycles > g.max_cycles ||
        g.max_cycles > testgen::kMaxPatternCycles) {
        malformed("bad cycle bounds");
    }

    if (!(in >> token) || token != "bounds") malformed("expected bounds");
    testgen::ConditionBounds& b = g.condition_bounds;
    if (!(in >> b.vdd_min >> b.vdd_max >> b.temperature_min >>
          b.temperature_max >> b.clock_period_min_ns >>
          b.clock_period_max_ns >> b.output_load_min_pf >>
          b.output_load_max_pf)) {
        malformed("bad bounds fields");
    }

    nn::VotingCommittee committee = nn::load_committee(in);
    return LearnedModel(std::move(committee), std::move(coder), g,
                        std::move(p));
}

void save_model_file(const std::string& path, const LearnedModel& model) {
    // Temp-file + rename: a crash mid-save leaves any previous model
    // intact instead of a truncated file.
    std::ostringstream out;
    save_model(out, model);
    if (!util::atomic_write_file(path, out.str())) {
        throw std::ios_base::failure("cannot write model file: " + path);
    }
}

LearnedModel load_model_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::ios_base::failure("cannot open for read: " + path);
    return load_model(in);
}

}  // namespace cichar::core
