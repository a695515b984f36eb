#include "nn/trainer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/binio.hpp"

namespace cichar::nn {
namespace {

Dataset xor_dataset() {
    Dataset data(2, 1);
    data.add({0.0, 0.0}, {0.0});
    data.add({0.0, 1.0}, {1.0});
    data.add({1.0, 0.0}, {1.0});
    data.add({1.0, 1.0}, {0.0});
    return data;
}

/// y = sin-free smooth function of two inputs, for regression tests.
Dataset smooth_dataset(std::size_t n, util::Rng& rng) {
    Dataset data(2, 1);
    for (std::size_t i = 0; i < n; ++i) {
        const double a = rng.uniform();
        const double b = rng.uniform();
        data.add({a, b}, {0.25 + 0.5 * (a * (1.0 - b))});
    }
    return data;
}

TEST(TrainerTest, LearnsXor) {
    const std::vector<std::size_t> sizes{2, 8, 1};
    Mlp net(sizes, Activation::kTanh, Activation::kSigmoid);
    util::Rng rng(1);
    net.init_weights(rng);
    TrainOptions opts;
    opts.max_epochs = 2000;
    opts.learning_rate = 0.5;
    opts.patience = 0;
    const Dataset data = xor_dataset();
    const TrainReport report = Trainer(opts).train(net, data, Dataset{}, rng);
    EXPECT_TRUE(report.learned);
    EXPECT_LT(report.final_train_mse, 0.02);
    EXPECT_GT(net.forward(std::vector<double>{0.0, 1.0})[0], 0.7);
    EXPECT_LT(net.forward(std::vector<double>{1.0, 1.0})[0], 0.3);
}

TEST(TrainerTest, LossDecreasesOverEpochs) {
    const std::vector<std::size_t> sizes{2, 6, 1};
    Mlp net(sizes, Activation::kTanh, Activation::kSigmoid);
    util::Rng rng(2);
    net.init_weights(rng);
    TrainOptions opts;
    opts.max_epochs = 100;
    opts.patience = 0;
    Dataset data = smooth_dataset(100, rng);
    const TrainReport report = Trainer(opts).train(net, data, Dataset{}, rng);
    ASSERT_GE(report.history.size(), 10u);
    EXPECT_LT(report.history.back().train_mse,
              report.history.front().train_mse);
}

TEST(TrainerTest, GeneralizesOnSmoothFunction) {
    const std::vector<std::size_t> sizes{2, 10, 1};
    Mlp net(sizes, Activation::kTanh, Activation::kSigmoid);
    util::Rng rng(3);
    net.init_weights(rng);
    Dataset train = smooth_dataset(300, rng);
    Dataset val = smooth_dataset(100, rng);
    TrainOptions opts;
    opts.max_epochs = 300;
    const TrainReport report = Trainer(opts).train(net, train, val, rng);
    EXPECT_TRUE(report.learned);
    EXPECT_TRUE(report.generalizes);
    EXPECT_LT(report.final_validation_mse, 0.01);
}

TEST(TrainerTest, EarlyStopOnTargetMse) {
    const std::vector<std::size_t> sizes{1, 4, 1};
    Mlp net(sizes, Activation::kTanh, Activation::kLinear);
    util::Rng rng(4);
    net.init_weights(rng);
    Dataset data(1, 1);
    for (int i = 0; i < 20; ++i) {
        const double x = i / 20.0;
        data.add({x}, {0.5 * x});
    }
    TrainOptions opts;
    opts.max_epochs = 5000;
    opts.target_train_mse = 1e-4;
    opts.lr_decay = 1.0;
    opts.patience = 0;
    const TrainReport report = Trainer(opts).train(net, data, Dataset{}, rng);
    EXPECT_LT(report.epochs_run, 5000u);
    EXPECT_LE(report.final_train_mse, 1e-3);
}

TEST(TrainerTest, PatienceStopsStaleTraining) {
    const std::vector<std::size_t> sizes{2, 4, 1};
    Mlp net(sizes, Activation::kTanh, Activation::kSigmoid);
    util::Rng rng(5);
    net.init_weights(rng);
    // Pure-noise targets: validation cannot improve for long.
    Dataset train(2, 1);
    Dataset val(2, 1);
    for (int i = 0; i < 60; ++i) {
        train.add({rng.uniform(), rng.uniform()}, {rng.uniform()});
        val.add({rng.uniform(), rng.uniform()}, {rng.uniform()});
    }
    TrainOptions opts;
    opts.max_epochs = 4000;
    opts.patience = 15;
    const TrainReport report = Trainer(opts).train(net, train, val, rng);
    EXPECT_LT(report.epochs_run, 2000u);
}

TEST(TrainerTest, NotLearnableReported) {
    // A linear single-layer net cannot learn XOR.
    const std::vector<std::size_t> sizes{2, 1};
    Mlp net(sizes, Activation::kLinear, Activation::kSigmoid);
    util::Rng rng(6);
    net.init_weights(rng);
    TrainOptions opts;
    opts.max_epochs = 500;
    opts.learnability_mse = 0.02;
    opts.patience = 0;
    const Dataset data = xor_dataset();
    const TrainReport report = Trainer(opts).train(net, data, Dataset{}, rng);
    EXPECT_FALSE(report.learned);
}

TEST(TrainerTest, BestValidationWeightsRestored) {
    const std::vector<std::size_t> sizes{2, 8, 1};
    Mlp net(sizes, Activation::kTanh, Activation::kSigmoid);
    util::Rng rng(7);
    net.init_weights(rng);
    Dataset train = smooth_dataset(60, rng);
    Dataset val = smooth_dataset(40, rng);
    TrainOptions opts;
    opts.max_epochs = 200;
    opts.patience = 200;  // never stop early
    const TrainReport report = Trainer(opts).train(net, train, val, rng);
    // The restored net's validation error equals the best epoch in the
    // history (within re-evaluation tolerance).
    double best = 1e9;
    for (const EpochStats& e : report.history) {
        best = std::min(best, e.validation_mse);
    }
    EXPECT_NEAR(report.final_validation_mse, best, 1e-9);
}

TEST(TrainerTest, DeterministicGivenSeeds) {
    const std::vector<std::size_t> sizes{2, 4, 1};
    const Dataset data = xor_dataset();
    TrainOptions opts;
    opts.max_epochs = 50;
    opts.patience = 0;

    const auto run = [&]() {
        Mlp net(sizes, Activation::kTanh, Activation::kSigmoid);
        util::Rng rng(42);
        net.init_weights(rng);
        (void)Trainer(opts).train(net, data, Dataset{}, rng);
        return net;
    };
    EXPECT_EQ(run(), run());
}

/// checksum64 of every weight and bias byte, then every epoch's training
/// and validation MSE bytes, after a short momentum run on random data.
std::uint64_t sgd_digest(const std::vector<std::size_t>& sizes,
                         Activation hidden, Activation output,
                         std::uint64_t seed) {
    util::Rng rng(seed);
    Mlp net(sizes, hidden, output);
    net.init_weights(rng);
    const auto random_set = [&](std::size_t n) {
        Dataset data(sizes.front(), sizes.back());
        for (std::size_t s = 0; s < n; ++s) {
            std::vector<double> in(sizes.front());
            std::vector<double> target(sizes.back());
            for (double& v : in) v = rng.uniform(-1.0, 1.0);
            for (double& v : target) v = rng.uniform(0.0, 1.0);
            data.add(std::move(in), std::move(target));
        }
        return data;
    };
    const Dataset train = random_set(37);
    const Dataset validation = random_set(70);  // crosses an eval tile
    TrainOptions opts;
    opts.max_epochs = 12;
    opts.learning_rate = 0.05;
    opts.momentum = 0.9;
    opts.target_train_mse = 0.0;
    opts.patience = 0;
    const TrainReport report = Trainer(opts).train(net, train, validation, rng);
    EXPECT_TRUE(std::isfinite(report.final_train_mse));

    std::string bytes;
    const auto put = [&bytes](const double* v, std::size_t n) {
        bytes.append(reinterpret_cast<const char*>(v), n * sizeof(double));
    };
    for (std::size_t l = 0; l < net.layer_count(); ++l) {
        put(net.layer(l).weights.data(), net.layer(l).weights.size());
        put(net.layer(l).biases.data(), net.layer(l).biases.size());
    }
    for (const EpochStats& e : report.history) {
        put(&e.train_mse, 1);
        put(&e.validation_mse, 1);
    }
    put(&report.final_train_mse, 1);
    put(&report.final_validation_mse, 1);
    return util::checksum64(bytes);
}

// Pins per-sample SGD bit for bit: layer widths off, at and around the
// four-lane width on both sides of every layer, every activation as a
// hidden and as an output layer, momentum on.
TEST(TrainerTest, SgdGoldenDigest) {
    using A = Activation;
    EXPECT_EQ(sgd_digest({14, 24, 12, 5}, A::kTanh, A::kSigmoid, 11),
              0x7fa485a1fadd473cULL);
    EXPECT_EQ(sgd_digest({7, 5, 3, 1}, A::kSigmoid, A::kLinear, 12),
              0xe49bc56072cd0748ULL);
    EXPECT_EQ(sgd_digest({3, 4, 7, 14}, A::kRelu, A::kTanh, 13),
              0x6cab1a05ce3183a6ULL);
    EXPECT_EQ(sgd_digest({1, 24, 4}, A::kLinear, A::kRelu, 14),
              0xe768996ddc2b06c6ULL);
    EXPECT_EQ(sgd_digest({5, 7, 24, 3}, A::kTanh, A::kLinear, 15),
              0x869d1d965e3cbbbeULL);
}

TEST(EvaluateTest, MseOfPerfectNetZero) {
    const std::vector<std::size_t> sizes{1, 1};
    Mlp net(sizes, Activation::kLinear, Activation::kLinear);
    net.layer(0).weight(0, 0) = 2.0;
    Dataset data(1, 1);
    data.add({1.0}, {2.0});
    data.add({2.0}, {4.0});
    EXPECT_DOUBLE_EQ(evaluate_mse(net, data), 0.0);
}

TEST(EvaluateTest, EmptyDatasetZero) {
    const std::vector<std::size_t> sizes{1, 1};
    const Mlp net(sizes, Activation::kLinear, Activation::kLinear);
    EXPECT_DOUBLE_EQ(evaluate_mse(net, Dataset{}), 0.0);
    EXPECT_DOUBLE_EQ(evaluate_class_accuracy(net, Dataset{}), 0.0);
}

TEST(EvaluateTest, ClassAccuracyCountsArgmax) {
    const std::vector<std::size_t> sizes{2, 2};
    Mlp net(sizes, Activation::kLinear, Activation::kLinear);
    // Identity-ish: output0 = x0, output1 = x1.
    net.layer(0).weight(0, 0) = 1.0;
    net.layer(0).weight(1, 1) = 1.0;
    Dataset data(2, 2);
    data.add({1.0, 0.0}, {1.0, 0.0});  // correct
    data.add({0.0, 1.0}, {1.0, 0.0});  // wrong
    EXPECT_DOUBLE_EQ(evaluate_class_accuracy(net, data), 0.5);
}

}  // namespace
}  // namespace cichar::nn
