/**
 * @file
 * Seeded request streams of the three workloads. A stream has a fixed
 * length and depends only on the seed, so both commits of a comparison
 * replay the same requests; the timed phase cycles through it.
 */

#ifndef PERFBENCH_STREAMS_HPP
#define PERFBENCH_STREAMS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "api/engine.hpp"

namespace perfbench {

/** One request of a stream. */
struct StreamItem
{
    neusight::api::ForecastRequest request;
    /**
     * True for the CNN workloads (ResNet-50, VGG-16): ForecastEngine::
     * forecast resolves only Table-5 transformers, so these are priced
     * through api::buildWorkloadGraph and the engine's cached backend.
     */
    bool cnn = false;
};

/**
 * serve_hot's repertoire: {GPT2-Large, GPT3-XL, BERT-Large, OPT-1.3B}
 * x batch 1-4 x {inference, decode}, on H100 — 32 requests, tagged with
 * their index.
 */
std::vector<StreamItem> hotRepertoire();

/** A seeded order of @p length indices into a repertoire of @p size. */
std::vector<size_t> hotOrder(uint64_t seed, size_t size, size_t length);

/**
 * forecast_cold: distinct single-GPU inference/decode/training requests
 * over the Table-5 transformers, ResNet-50 (inference and training) and
 * VGG-16 (inference), batch 1-64, decode context 128-4096, every
 * Table-4 GPU.
 */
std::vector<StreamItem> coldStream(uint64_t seed, size_t length);

/**
 * plan: HybridSweep, Simulate (1F1B or zero-bubble, seeded jitter) and
 * Hybrid requests on 4-8 GPUs of A100/H100/V100 over the Table-5
 * models; every Hybrid/Simulate plan passes dist::validateHybrid.
 */
std::vector<StreamItem> planStream(uint64_t seed, size_t length);

/** The kernel graph the engine builds for a single-GPU stream item. */
neusight::graph::KernelGraph graphOf(const StreamItem &item);

/** The multi-GPU server a request targets, built as the engine does. */
neusight::dist::ServerConfig
serverOf(const neusight::api::ForecastRequest &request);

} // namespace perfbench

#endif // PERFBENCH_STREAMS_HPP
