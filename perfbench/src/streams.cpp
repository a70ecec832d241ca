#include "streams.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "gpusim/gpu_spec.hpp"
#include "gpusim/spec_io.hpp"
#include "graph/model_io.hpp"
#include "graph/models.hpp"

namespace perfbench {

using neusight::Rng;
using neusight::api::ForecastRequest;
using neusight::api::RequestKind;
namespace dist = neusight::dist;
namespace gpusim = neusight::gpusim;
namespace graph = neusight::graph;

namespace {

const std::vector<std::string> &
transformers()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const graph::ModelConfig &m : graph::paperWorkloads())
            out.push_back(m.name);
        return out;
    }();
    return names;
}

template <typename T>
const T &
pick(Rng &rng, const std::vector<T> &items)
{
    return items[static_cast<size_t>(
        rng.uniformInt(0, static_cast<int64_t>(items.size()) - 1))];
}

/** Divisors of @p n. */
std::vector<int>
divisors(int n)
{
    std::vector<int> out;
    for (int d = 1; d <= n; ++d)
        if (n % d == 0)
            out.push_back(d);
    return out;
}

} // namespace

std::vector<StreamItem>
hotRepertoire()
{
    const gpusim::GpuSpec h100 = gpusim::resolveGpu("H100");
    std::vector<StreamItem> items;
    for (const char *model : {"GPT2-Large", "GPT3-XL", "BERT-Large",
                              "OPT-1.3B"}) {
        for (uint64_t batch = 1; batch <= 4; ++batch) {
            for (RequestKind kind :
                 {RequestKind::Inference, RequestKind::DecodeStep}) {
                StreamItem item;
                ForecastRequest &r = item.request;
                r.kind = kind;
                r.model = model;
                r.batch = batch;
                r.gpu = h100;
                if (kind == RequestKind::DecodeStep)
                    r.pastLen = 1024;
                r.tag = std::to_string(items.size());
                items.push_back(std::move(item));
            }
        }
    }
    return items;
}

std::vector<size_t>
hotOrder(uint64_t seed, size_t size, size_t length)
{
    Rng rng(seed);
    std::vector<size_t> order(length);
    for (size_t &i : order)
        i = static_cast<size_t>(
            rng.uniformInt(0, static_cast<int64_t>(size) - 1));
    return order;
}

std::vector<StreamItem>
coldStream(uint64_t seed, size_t length)
{
    Rng rng(seed);
    const std::vector<gpusim::GpuSpec> &gpus = gpusim::deviceDatabase();
    std::vector<std::string> inference = transformers();
    inference.push_back("ResNet-50");
    inference.push_back("VGG-16");
    std::vector<std::string> training = transformers();
    training.push_back("ResNet-50");

    std::vector<StreamItem> items(length);
    for (size_t i = 0; i < length; ++i) {
        ForecastRequest &r = items[i].request;
        r.kind = pick(rng, std::vector<RequestKind>{
                               RequestKind::Inference,
                               RequestKind::DecodeStep,
                               RequestKind::Training});
        if (r.kind == RequestKind::Inference)
            r.model = pick(rng, inference);
        else if (r.kind == RequestKind::Training)
            r.model = pick(rng, training);
        else
            r.model = pick(rng, transformers());
        r.batch = static_cast<uint64_t>(rng.uniformInt(1, 64));
        if (r.kind == RequestKind::DecodeStep)
            r.pastLen = static_cast<uint64_t>(rng.uniformInt(128, 4096));
        r.gpu = pick(rng, gpus);
        r.tag = std::to_string(i);
        items[i].cnn = r.model == "ResNet-50" || r.model == "VGG-16";
    }
    return items;
}

std::vector<StreamItem>
planStream(uint64_t seed, size_t length)
{
    Rng rng(seed);
    const std::vector<gpusim::GpuSpec> gpus = {
        gpusim::resolveGpu("A100-40GB"), gpusim::resolveGpu("H100"),
        gpusim::resolveGpu("V100")};
    const std::vector<int> gpu_counts = {4, 6, 8};
    const std::vector<uint64_t> global_batches = {8, 16, 32};
    const std::vector<int> micro_batches = {1, 2, 4, 8};

    std::vector<StreamItem> items(length);
    for (size_t i = 0; i < length; ++i) {
        ForecastRequest &r = items[i].request;
        r.kind = pick(rng, std::vector<RequestKind>{
                               RequestKind::HybridSweep,
                               RequestKind::Simulate,
                               RequestKind::Hybrid});
        r.tag = std::to_string(i);
        // Resample until the plan is runnable: the workload measures
        // forecasting, not request rejection.
        for (int attempt = 0;; ++attempt) {
            if (attempt == 1000)
                throw std::runtime_error("plan stream: no valid plan");
            r.model = pick(rng, transformers());
            r.gpu = pick(rng, gpus);
            r.numGpus = pick(rng, gpu_counts);
            r.globalBatch = pick(rng, global_batches);
            if (r.kind == RequestKind::HybridSweep)
                break;
            dist::HybridConfig &h = r.hybrid;
            h.tpDegree = pick(rng, divisors(r.numGpus));
            h.ppDegree = pick(rng, divisors(r.numGpus / h.tpDegree));
            h.dpDegree = r.numGpus / (h.tpDegree * h.ppDegree);
            h.numMicroBatches = pick(rng, micro_batches);
            h.recomputeActivations = rng.uniform() < 0.5;
            h.virtualStagesPerGpu = 2;
            if (r.kind == RequestKind::Simulate) {
                h.schedule = rng.uniform() < 0.5
                                 ? dist::PipelineSchedule::OneFOneB
                                 : dist::PipelineSchedule::ZeroBubble;
                r.jitterFraction = rng.uniform(0.0, 0.1);
                r.simSeed = rng.next() >> 12;
            } else {
                h.schedule = pick(
                    rng, std::vector<dist::PipelineSchedule>{
                             dist::PipelineSchedule::GPipe,
                             dist::PipelineSchedule::OneFOneB,
                             dist::PipelineSchedule::Interleaved1F1B});
            }
            if (dist::validateHybrid(graph::findModel(r.model), serverOf(r),
                                     r.globalBatch, h)
                    .empty())
                break;
        }
    }
    return items;
}

graph::KernelGraph
graphOf(const StreamItem &item)
{
    const ForecastRequest &r = item.request;
    if (r.kind == RequestKind::DecodeStep)
        return graph::buildDecodeGraph(graph::resolveModel(r.model), r.batch,
                                       r.pastLen, r.dtype);
    return neusight::api::buildWorkloadGraph(
        r.model, r.batch, r.kind == RequestKind::Training, r.dtype);
}

dist::ServerConfig
serverOf(const ForecastRequest &request)
{
    dist::ServerConfig server;
    server.systemName = request.gpu.name + "-server";
    server.numGpus = request.numGpus;
    server.linkGBps = request.linkGBps;
    server.setGpu(request.gpu);
    return server;
}

} // namespace perfbench
