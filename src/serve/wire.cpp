#include "serve/wire.hpp"

#include <cstring>
#include <istream>

#include "common/logging.hpp"
#include "gpusim/spec_io.hpp"

namespace neusight::serve {

using common::Json;

LineFramer::LineFramer(size_t max_line_bytes)
    : maxLineBytes(max_line_bytes)
{
    ensure(maxLineBytes > 0, "LineFramer: max line bytes must be positive");
}

void
LineFramer::feed(const char *data, size_t size)
{
    if (discardingLine) {
        // Inside an already-reported oversized line: drop bytes until
        // its terminating newline shows up, then resume buffering.
        const char *nl = static_cast<const char *>(memchr(data, '\n', size));
        if (nl == nullptr)
            return;
        discardingLine = false;
        const size_t dropped = static_cast<size_t>(nl - data) + 1;
        data += dropped;
        size -= dropped;
    }
    pending.append(data, size);
}

LineFramer::Event
LineFramer::next(std::string &out)
{
    // Compact once the consumed prefix dominates, so long sessions
    // don't grow the buffer without bound.
    if (consumed > 0 && consumed >= pending.size() / 2) {
        pending.erase(0, consumed);
        scanned -= consumed;
        consumed = 0;
    }
    const size_t nl = pending.find('\n', scanned);
    if (nl == std::string::npos) {
        scanned = pending.size();
        if (pending.size() - consumed > maxLineBytes) {
            // No newline in sight and the line is already over the
            // bound: report it once and stream the rest to /dev/null.
            pending.clear();
            consumed = 0;
            scanned = 0;
            discardingLine = true;
            return Event::Oversized;
        }
        return Event::None;
    }
    size_t end = nl;
    if (end > consumed && pending[end - 1] == '\r')
        --end;
    const size_t start = consumed;
    consumed = nl + 1;
    scanned = consumed;
    if (end - start > maxLineBytes)
        return Event::Oversized;
    out.assign(pending, start, end - start);
    return Event::Line;
}

size_t
LineFramer::buffered() const
{
    return pending.size() - consumed;
}

namespace {

RequestKind
kindFromString(const std::string &op)
{
    if (op == "inference")
        return RequestKind::Inference;
    if (op == "decode")
        return RequestKind::DecodeStep;
    if (op == "training")
        return RequestKind::Training;
    if (op == "distributed")
        return RequestKind::Distributed;
    if (op == "hybrid")
        return RequestKind::Hybrid;
    if (op == "simulate")
        return RequestKind::Simulate;
    if (op == "sweep")
        return RequestKind::HybridSweep;
    if (op == "stats")
        return RequestKind::Stats;
    if (op == "ping")
        return RequestKind::Ping;
    fatal("wire: unknown op '" + op +
          "' (expected inference|decode|training|distributed|hybrid|"
          "simulate|sweep|stats|ping)");
}

gpusim::DataType
dtypeFromString(const std::string &name)
{
    if (name == "fp32")
        return gpusim::DataType::Fp32;
    if (name == "fp16")
        return gpusim::DataType::Fp16;
    fatal("wire: unknown dtype '" + name + "' (expected fp32|fp16)");
}

dist::Parallelism
strategyFromString(const std::string &name)
{
    if (name == "data")
        return dist::Parallelism::Data;
    if (name == "tensor")
        return dist::Parallelism::Tensor;
    if (name == "pipeline")
        return dist::Parallelism::Pipeline;
    fatal("wire: unknown strategy '" + name +
          "' (expected data|tensor|pipeline)");
}

const char *
strategyToString(dist::Parallelism strategy)
{
    switch (strategy) {
      case dist::Parallelism::Data:
        return "data";
      case dist::Parallelism::Tensor:
        return "tensor";
      case dist::Parallelism::Pipeline:
        return "pipeline";
    }
    panic("wire: bad strategy");
}

uint64_t
positiveField(const Json &json, const std::string &key, uint64_t fallback)
{
    const double value =
        json.numberOr(key, static_cast<double>(fallback));
    if (value < 1.0)
        fatal("wire: '" + key + "' must be at least 1");
    return static_cast<uint64_t>(value);
}

dist::PipelineSchedule
scheduleFromString(const std::string &name)
{
    if (name == "gpipe")
        return dist::PipelineSchedule::GPipe;
    if (name == "1f1b")
        return dist::PipelineSchedule::OneFOneB;
    if (name == "interleaved")
        return dist::PipelineSchedule::Interleaved1F1B;
    if (name == "zero-bubble")
        return dist::PipelineSchedule::ZeroBubble;
    fatal("wire: unknown schedule '" + name +
          "' (expected gpipe|1f1b|interleaved|zero-bubble)");
}

const char *
scheduleToString(dist::PipelineSchedule schedule)
{
    switch (schedule) {
      case dist::PipelineSchedule::GPipe:
        return "gpipe";
      case dist::PipelineSchedule::OneFOneB:
        return "1f1b";
      case dist::PipelineSchedule::Interleaved1F1B:
        return "interleaved";
      case dist::PipelineSchedule::ZeroBubble:
        return "zero-bubble";
    }
    panic("wire: bad schedule");
}

RequestPriority
priorityFromString(const std::string &name)
{
    if (name == "normal")
        return RequestPriority::Normal;
    if (name == "high")
        return RequestPriority::High;
    fatal("wire: unknown priority '" + name + "' (expected normal|high)");
}

double
linkField(const Json &json)
{
    const double link = json.numberOr("link_gbps", 0.0);
    if (link < 0.0)
        fatal("wire: 'link_gbps' must be non-negative");
    return link;
}

} // namespace

ForecastRequest
requestFromJson(const Json &json)
{
    if (!json.isObject())
        fatal("wire: request must be a JSON object");
    ForecastRequest req;
    req.kind = kindFromString(json.at("op").asString());
    if (req.kind == RequestKind::Stats || req.kind == RequestKind::Ping) {
        // Stats/ping requests name no workload: only the echo tag
        // applies.
        req.model.clear();
        req.tag = json.stringOr("tag", "");
        return req;
    }
    const double timeout = json.numberOr("timeout_ms", 0.0);
    if (timeout < 0.0)
        fatal("wire: 'timeout_ms' must be non-negative");
    req.timeoutMs = static_cast<uint64_t>(timeout);
    req.priority = priorityFromString(json.stringOr("priority", "normal"));
    req.model = json.at("model").asString();
    req.gpu = gpusim::resolveGpu(json.at("gpu").asString());
    req.batch = positiveField(json, "batch", 1);
    req.dtype = dtypeFromString(json.stringOr("dtype", "fp32"));
    req.tag = json.stringOr("tag", "");
    req.backend = json.stringOr("backend", "");
    const std::string predictor_alias = json.stringOr("predictor", "");
    if (!predictor_alias.empty()) {
        if (!req.backend.empty() && req.backend != predictor_alias)
            fatal("wire: 'backend' and its alias 'predictor' disagree "
                  "('" + req.backend + "' vs '" + predictor_alias + "')");
        req.backend = predictor_alias;
    }
    if (req.kind == RequestKind::DecodeStep) {
        if (!json.has("past"))
            fatal("wire: decode requests need 'past' (KV-cache length)");
        req.pastLen = positiveField(json, "past", 1);
    }
    if (req.kind == RequestKind::Distributed) {
        req.numGpus =
            static_cast<int>(positiveField(json, "num_gpus", 4));
        req.globalBatch = positiveField(json, "global_batch", 4);
        req.strategy =
            strategyFromString(json.stringOr("strategy", "data"));
        req.hybrid.numMicroBatches =
            static_cast<int>(positiveField(json, "micro_batches", 1));
        req.hybrid.schedule =
            scheduleFromString(json.stringOr("schedule", "gpipe"));
        // Only a pipeline reads the micro-batch count and schedule;
        // the data/tensor presets price one micro-batch under GPipe.
        // Canonicalize before fingerprinting, so requests differing
        // only in an ignored field coalesce.
        if (req.strategy != dist::Parallelism::Pipeline) {
            req.hybrid.numMicroBatches = 1;
            req.hybrid.schedule = dist::PipelineSchedule::GPipe;
        }
        req.linkGBps = linkField(json);
    }
    if (req.kind == RequestKind::Hybrid ||
        req.kind == RequestKind::Simulate) {
        req.hybrid.tpDegree =
            static_cast<int>(positiveField(json, "tp", 1));
        req.hybrid.ppDegree =
            static_cast<int>(positiveField(json, "pp", 1));
        req.hybrid.dpDegree =
            static_cast<int>(positiveField(json, "dp", 1));
        // The degrees must multiply to the server's GPU count, so the
        // product is the natural default when num_gpus is omitted.
        req.numGpus = static_cast<int>(positiveField(
            json, "num_gpus",
            static_cast<uint64_t>(req.hybrid.totalGpus())));
        req.globalBatch = positiveField(json, "global_batch", 4);
        req.hybrid.numMicroBatches =
            static_cast<int>(positiveField(json, "micro_batches", 1));
        req.hybrid.schedule =
            scheduleFromString(json.stringOr("schedule", "1f1b"));
        req.hybrid.virtualStagesPerGpu =
            static_cast<int>(positiveField(json, "virtual_stages", 2));
        req.hybrid.recomputeActivations =
            json.boolOr("recompute", false);
        req.linkGBps = linkField(json);
        if (req.kind == RequestKind::Simulate) {
            req.jitterFraction = json.numberOr("jitter", 0.0);
            if (req.jitterFraction < 0.0)
                fatal("wire: 'jitter' must be non-negative");
            req.simSeed = static_cast<uint64_t>(
                json.numberOr("seed", 0.0));
        } else if (req.hybrid.schedule ==
                   dist::PipelineSchedule::ZeroBubble) {
            fatal("wire: the zero-bubble schedule needs the simulator "
                  "(op 'simulate', not 'hybrid')");
        }
    }
    if (req.kind == RequestKind::HybridSweep) {
        req.numGpus =
            static_cast<int>(positiveField(json, "num_gpus", 4));
        req.globalBatch = positiveField(json, "global_batch", 4);
        req.linkGBps = linkField(json);
    }
    return req;
}

Json
requestToJson(const ForecastRequest &req)
{
    Json json;
    json.set("op", requestKindName(req.kind));
    if (req.kind == RequestKind::Stats || req.kind == RequestKind::Ping) {
        if (!req.tag.empty())
            json.set("tag", req.tag);
        return json;
    }
    if (req.timeoutMs > 0)
        json.set("timeout_ms", req.timeoutMs);
    json.set("model", req.model);
    json.set("gpu", req.gpu.name);
    json.set("batch", req.batch);
    if (req.kind == RequestKind::DecodeStep)
        json.set("past", req.pastLen);
    if (req.dtype != gpusim::DataType::Fp32)
        json.set("dtype", "fp16");
    if (req.kind == RequestKind::Distributed) {
        json.set("num_gpus", req.numGpus);
        json.set("global_batch", req.globalBatch);
        json.set("strategy", strategyToString(req.strategy));
        if (req.hybrid.numMicroBatches != 1)
            json.set("micro_batches", req.hybrid.numMicroBatches);
        if (req.hybrid.schedule != dist::PipelineSchedule::GPipe)
            json.set("schedule", scheduleToString(req.hybrid.schedule));
        if (req.linkGBps > 0.0)
            json.set("link_gbps", req.linkGBps);
    }
    if (req.kind == RequestKind::Hybrid ||
        req.kind == RequestKind::Simulate) {
        json.set("num_gpus", req.numGpus);
        json.set("global_batch", req.globalBatch);
        json.set("tp", req.hybrid.tpDegree);
        json.set("pp", req.hybrid.ppDegree);
        json.set("dp", req.hybrid.dpDegree);
        if (req.hybrid.numMicroBatches != 1)
            json.set("micro_batches", req.hybrid.numMicroBatches);
        json.set("schedule", scheduleToString(req.hybrid.schedule));
        json.set("virtual_stages", req.hybrid.virtualStagesPerGpu);
        if (req.hybrid.recomputeActivations)
            json.set("recompute", true);
        if (req.linkGBps > 0.0)
            json.set("link_gbps", req.linkGBps);
        if (req.kind == RequestKind::Simulate) {
            if (req.jitterFraction > 0.0)
                json.set("jitter", req.jitterFraction);
            if (req.simSeed != 0)
                json.set("seed", req.simSeed);
        }
    }
    if (req.kind == RequestKind::HybridSweep) {
        json.set("num_gpus", req.numGpus);
        json.set("global_batch", req.globalBatch);
        if (req.linkGBps > 0.0)
            json.set("link_gbps", req.linkGBps);
    }
    if (req.priority == RequestPriority::High)
        json.set("priority", "high");
    if (!req.backend.empty())
        json.set("backend", req.backend);
    if (!req.tag.empty())
        json.set("tag", req.tag);
    return json;
}

Json
resultToJson(const ForecastResult &result)
{
    Json json;
    if (!result.tag.empty())
        json.set("tag", result.tag);
    json.set("ok", result.ok);
    if (!result.ok) {
        json.set("error", result.error);
        if (!result.errorCode.empty())
            json.set("code", result.errorCode);
        return json;
    }
    if (!result.payload.empty()) {
        // Stats responses embed the registry snapshot in place of the
        // forecast fields.
        json.set("stats", Json::parse(result.payload));
        json.set("service_us", result.serviceMicros);
        return json;
    }
    if (result.oom) {
        json.set("oom", true);
    } else {
        json.set("latency_ms", result.latencyMs);
        if (result.commBytes > 0.0)
            json.set("comm_bytes", result.commBytes);
        if (result.bubbleMs > 0.0)
            json.set("bubble_ms", result.bubbleMs);
        if (result.exposedDdpMs > 0.0)
            json.set("exposed_ddp_ms", result.exposedDdpMs);
        if (result.kernelCount > 0)
            json.set("kernels", static_cast<uint64_t>(result.kernelCount));
    }
    if (!result.strategy.empty())
        json.set("strategy", result.strategy);
    json.set("service_us", result.serviceMicros);
    if (result.coalesced)
        json.set("coalesced", true);
    if (result.cache.hits + result.cache.misses > 0) {
        json.set("cache_hits", result.cache.hits);
        json.set("cache_misses", result.cache.misses);
        json.set("cache_hit_rate", result.cache.hitRate());
    }
    return json;
}

bool
isSkippableRequestLine(const std::string &line)
{
    const size_t first = line.find_first_not_of(" \t\r");
    return first == std::string::npos || line[first] == '#';
}

std::vector<ForecastRequest>
readRequestScript(std::istream &in)
{
    std::vector<ForecastRequest> requests;
    std::string line;
    size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (isSkippableRequestLine(line))
            continue;
        try {
            requests.push_back(requestFromJson(Json::parse(line)));
        } catch (const std::exception &e) {
            fatal("wire: request script line " + std::to_string(line_no) +
                  ": " + e.what());
        }
    }
    return requests;
}

} // namespace neusight::serve
