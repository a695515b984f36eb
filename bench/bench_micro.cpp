// Micro-benchmarks (google-benchmark): throughput of the hot inner pieces
// — pattern expansion (full and features-only) and construction, device
// evaluation, trip-point searches, NN forward/training, the hunt's
// per-evaluation committee anchor, GA generations. These bound how many
// characterization evaluations per second the simulated rig sustains. The seal rows time the two 64-bit hashes over
// a hunt checkpoint-sized buffer.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ate/search.hpp"
#include "ate/search_until_trip.hpp"
#include "ate/tester.hpp"
#include "core/learner.hpp"
#include "device/memory_chip.hpp"
#include "fuzzy/coding.hpp"
#include "ga/multi_population.hpp"
#include "nn/trainer.hpp"
#include "testgen/march.hpp"
#include "testgen/pattern.hpp"
#include "testgen/random_gen.hpp"
#include "util/binio.hpp"

namespace {

using namespace cichar;

testgen::Test make_random_test(std::uint32_t cycles) {
    testgen::RandomTestGenerator gen;
    testgen::PatternRecipe r;
    r.cycles = cycles;
    r.seed = 99;
    return gen.make_test(r, {}, "bench");
}

void BM_PatternExpansion(benchmark::State& state) {
    testgen::RandomTestGenerator gen;
    testgen::PatternRecipe r;
    r.cycles = static_cast<std::uint32_t>(state.range(0));
    r.seed = 7;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.expand(r));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PatternExpansion)->Arg(100)->Arg(1000);

// The features-only sink: the same cycle stream as BM_PatternExpansion,
// absorbed into PatternStats without storing a cycle (NN scoring path).
void BM_PatternFeatures(benchmark::State& state) {
    testgen::RandomTestGenerator gen;
    testgen::PatternRecipe r;
    r.cycles = static_cast<std::uint32_t>(state.range(0));
    r.seed = 7;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.expand_stats(r));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PatternFeatures)->Arg(100)->Arg(1000);

/// The hunt's recipe mix: 256 random_recipe draws. One default recipe's
/// draw-dependent branches predict far better than these do.
std::vector<testgen::PatternRecipe> mixed_recipes() {
    const testgen::RandomTestGenerator gen;
    util::Rng rng(2005);
    std::vector<testgen::PatternRecipe> recipes(256);
    for (testgen::PatternRecipe& r : recipes) r = gen.random_recipe(rng);
    return recipes;
}

std::int64_t total_cycles(const std::vector<testgen::PatternRecipe>& recipes) {
    std::int64_t cycles = 0;
    for (const testgen::PatternRecipe& r : recipes) cycles += r.cycles;
    return cycles;
}

// BM_PatternExpansion over the hunt's recipe mix; items are cycles.
void BM_PatternExpansionMixed(benchmark::State& state) {
    const testgen::RandomTestGenerator gen;
    const std::vector<testgen::PatternRecipe> recipes = mixed_recipes();
    for (auto _ : state) {
        for (const testgen::PatternRecipe& r : recipes) {
            benchmark::DoNotOptimize(gen.expand(r));
        }
    }
    state.SetItemsProcessed(state.iterations() * total_cycles(recipes));
}
BENCHMARK(BM_PatternExpansionMixed);

// BM_PatternFeatures over the hunt's recipe mix. The whole PatternStats
// goes through DoNotOptimize: reading back one counter would let the
// compiler drop the work behind the others.
void BM_PatternFeaturesMixed(benchmark::State& state) {
    const testgen::RandomTestGenerator gen;
    const std::vector<testgen::PatternRecipe> recipes = mixed_recipes();
    for (auto _ : state) {
        for (const testgen::PatternRecipe& r : recipes) {
            benchmark::DoNotOptimize(gen.expand_stats(r));
        }
    }
    state.SetItemsProcessed(state.iterations() * total_cycles(recipes));
}
BENCHMARK(BM_PatternFeaturesMixed);

// Feature extraction reads counters the pattern keeps as it is built, so
// the per-cycle cost sits in construction: time the vector constructor.
void BM_PatternConstruction(benchmark::State& state) {
    const testgen::Test test =
        make_random_test(static_cast<std::uint32_t>(state.range(0)));
    const std::vector<testgen::VectorCycle> cycles(test.pattern.cycles().begin(),
                                                   test.pattern.cycles().end());
    for (auto _ : state) {
        benchmark::DoNotOptimize(testgen::TestPattern("bench", cycles));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PatternConstruction)->Arg(100)->Arg(1000);

void BM_DeviceMeasurement(benchmark::State& state) {
    device::MemoryTestChip chip;
    const testgen::Test test = make_random_test(500);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            chip.passes(test, device::ParameterKind::kDataValidTime, 25.0));
    }
}
BENCHMARK(BM_DeviceMeasurement);

void BM_FunctionalMarch(benchmark::State& state) {
    device::MemoryTestChip chip;
    const testgen::Test march =
        testgen::make_test(testgen::march_c_minus().expand());
    for (auto _ : state) {
        benchmark::DoNotOptimize(chip.run_functional(march));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(march.pattern.size()));
}
BENCHMARK(BM_FunctionalMarch);

void BM_TripSearchBinary(benchmark::State& state) {
    device::MemoryTestChip chip;
    ate::Tester tester(chip);
    const ate::Parameter param = ate::Parameter::data_valid_time();
    const testgen::Test test = make_random_test(500);
    const ate::BinarySearch search;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            search.find(tester.oracle(test, param), param));
    }
}
BENCHMARK(BM_TripSearchBinary);

void BM_TripSearchUntilTrip(benchmark::State& state) {
    device::MemoryTestChip chip;
    ate::Tester tester(chip);
    const ate::Parameter param = ate::Parameter::data_valid_time();
    const testgen::Test test = make_random_test(500);
    const double truth =
        chip.true_parameter(test, device::ParameterKind::kDataValidTime);
    ate::SearchUntilTrip::Options opts;
    opts.search_factor = 0.2;
    const ate::SearchUntilTrip search(opts, truth - 0.7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            search.find(tester.oracle(test, param), param));
    }
}
BENCHMARK(BM_TripSearchUntilTrip);

/// The learner's committee member: the features, the default hidden
/// layers {24, 12}, and one output per fine fuzzy WCR term.
std::vector<std::size_t> learner_net_sizes() {
    return {testgen::kFeatureCount, 24, 12,
            fuzzy::TripPointCoder::fuzzy_wcr_fine().output_count()};
}

/// Samples one member trains on in a default first learning round: 150
/// tests, 0.8 of them for training, 0.7 of those per member.
constexpr std::size_t kMemberSamples = 84;

void BM_MlpForward(benchmark::State& state) {
    const std::vector<std::size_t> sizes = learner_net_sizes();
    nn::Mlp net(sizes, nn::Activation::kTanh, nn::Activation::kSigmoid);
    util::Rng rng(1);
    net.init_weights(rng);
    std::vector<double> x(testgen::kFeatureCount, 0.5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.forward(x));
    }
}
BENCHMARK(BM_MlpForward);

// The hunt's per-evaluation anchor (LearnedModel::predicted_trip_points):
// features from each test's carried stats, a default five-member
// committee's mean, the fuzzy decode and the spec inversion. Weights are
// random, which costs the same as trained ones. Items are anchors, over
// tests of the hunt's recipe mix. The argument is the batch: 24 is a
// default population's generation, which the hunt scores in one pass;
// 1 is the price of scoring each evaluation on its own.
void BM_CommitteeAnchor(benchmark::State& state) {
    const std::vector<std::size_t> sizes = learner_net_sizes();
    util::Rng rng(4);
    const nn::CommitteeOptions committee_options;
    std::vector<nn::Mlp> members;
    for (std::size_t m = 0; m < committee_options.members; ++m) {
        nn::Mlp net(sizes, committee_options.hidden_activation,
                    committee_options.output_activation);
        net.init_weights(rng);
        members.push_back(std::move(net));
    }
    nn::VotingCommittee committee;
    committee.set_members(std::move(members),
                          std::vector<double>(committee_options.members, 0.0));
    const testgen::RandomGeneratorOptions generator_options;
    const core::LearnedModel model(std::move(committee),
                                   fuzzy::TripPointCoder::fuzzy_wcr_fine(),
                                   generator_options,
                                   ate::Parameter::data_valid_time());
    const testgen::RandomTestGenerator gen(generator_options);
    std::vector<testgen::Test> tests;
    for (const testgen::PatternRecipe& r : mixed_recipes()) {
        tests.push_back(gen.make_test(r, {}, "bench"));
    }
    const auto batch = static_cast<std::size_t>(state.range(0));
    core::PredictScratch scratch;
    std::vector<std::optional<double>> trips;
    for (auto _ : state) {
        for (std::size_t first = 0; first < tests.size(); first += batch) {
            model.predicted_trip_points(
                std::span<const testgen::Test>(tests).subspan(
                    first, std::min(batch, tests.size() - first)),
                scratch, trips);
            benchmark::DoNotOptimize(trips.data());
        }
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(tests.size()));
}
BENCHMARK(BM_CommitteeAnchor)->Arg(1)->Arg(24);

// The residual correction each anchored evaluation adds on top of
// BM_CommitteeAnchor: one nearest-neighbour query against a full memory
// (core::ResidualMemory::kCapacity entries) and the clamp. Items are
// queries, over 64 random feature rows.
void BM_ResidualAnchor(benchmark::State& state) {
    constexpr std::size_t kWidth = core::ResidualMemory::kWidth;
    util::Rng rng(5);
    core::ResidualMemory memory;
    std::vector<double> row(kWidth);
    for (std::size_t i = 0; i < core::ResidualMemory::kCapacity; ++i) {
        for (double& v : row) v = rng.uniform();
        memory.remember(row, rng.uniform() - 0.5);
    }
    std::vector<double> queries(64 * kWidth);
    for (double& v : queries) v = rng.uniform();
    const ate::Parameter param = ate::Parameter::data_valid_time();
    for (auto _ : state) {
        for (std::size_t q = 0; q < 64; ++q) {
            benchmark::DoNotOptimize(memory.anchor(
                std::span<const double>(queries).subspan(q * kWidth, kWidth),
                21.0, param));
        }
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ResidualAnchor);

void BM_MlpTrainEpoch(benchmark::State& state) {
    const std::vector<std::size_t> sizes = learner_net_sizes();
    util::Rng rng(2);
    nn::Dataset data(sizes.front(), sizes.back());
    for (std::size_t i = 0; i < kMemberSamples; ++i) {
        std::vector<double> x(sizes.front());
        std::vector<double> y(sizes.back());
        for (double& v : x) v = rng.uniform();
        for (double& v : y) v = rng.uniform();
        data.add(std::move(x), std::move(y));
    }
    nn::TrainOptions opts;
    opts.max_epochs = 1;
    opts.patience = 0;
    const nn::Trainer trainer(opts);
    for (auto _ : state) {
        nn::Mlp net(sizes, nn::Activation::kTanh, nn::Activation::kSigmoid);
        net.init_weights(rng);
        benchmark::DoNotOptimize(trainer.train(net, data, nn::Dataset{}, rng));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kMemberSamples));
}
BENCHMARK(BM_MlpTrainEpoch);

void BM_GaGeneration(benchmark::State& state) {
    const ga::FitnessFn cheap = [](const ga::TestChromosome& c) {
        double s = 0.0;
        for (const double g : c.sequence) s += g;
        return s;
    };
    util::Rng rng(3);
    ga::PopulationOptions opts;
    opts.size = 24;
    ga::Population pop(opts, {}, rng);
    (void)pop.evaluate(cheap);
    for (auto _ : state) {
        benchmark::DoNotOptimize(pop.step(cheap, rng));
    }
    state.SetItemsProcessed(state.iterations() * 24);
}
BENCHMARK(BM_GaGeneration);

/// 411 000 bytes: about one hunt checkpoint payload with a full trip
/// cache.
std::string seal_buffer() {
    std::string bytes(411000, '\0');
    util::Rng rng(11);
    for (char& c : bytes) c = static_cast<char>(rng() & 0xFF);
    return bytes;
}

void BM_Seal64(benchmark::State& state) {
    const std::string bytes = seal_buffer();
    for (auto _ : state) {
        benchmark::DoNotOptimize(util::seal64(bytes));
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Seal64);

void BM_Checksum64(benchmark::State& state) {
    const std::string bytes = seal_buffer();
    for (auto _ : state) {
        benchmark::DoNotOptimize(util::checksum64(bytes));
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Checksum64);

}  // namespace
