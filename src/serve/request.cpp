#include "serve/request.hpp"

#include <cstdio>

#include "common/logging.hpp"

namespace neusight::serve {

const char *
requestKindName(RequestKind kind)
{
    switch (kind) {
      case RequestKind::Inference:
        return "inference";
      case RequestKind::DecodeStep:
        return "decode";
      case RequestKind::Training:
        return "training";
      case RequestKind::Distributed:
        return "distributed";
      case RequestKind::Hybrid:
        return "hybrid";
      case RequestKind::Simulate:
        return "simulate";
      case RequestKind::HybridSweep:
        return "sweep";
      case RequestKind::Stats:
        return "stats";
      case RequestKind::Ping:
        return "ping";
    }
    panic("requestKindName: bad kind");
}

std::string
ForecastRequest::fingerprint() const
{
    std::string key;
    key.reserve(160);
    if (kind == RequestKind::Stats || kind == RequestKind::Ping) {
        // A snapshot (or liveness probe) is point-in-time state, not a
        // deterministic function of the request: every one must run
        // (the tag keeps concurrent ones from coalescing with each
        // other).
        key += requestKindName(kind);
        key += '!';
        key += tag;
        return key;
    }
    // The backend leads the key: the same workload through two different
    // predictors is two different forecasts, so they must never coalesce.
    // Fingerprints are process-local (coalescing/dedup only), so the
    // format change relative to the pre-backend layout is free.
    key += backend;
    key += '!';
    key += requestKindName(kind);
    key += '|';
    key += model;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "|b%llu|p%llu|d%d",
                  static_cast<unsigned long long>(batch),
                  static_cast<unsigned long long>(pastLen),
                  static_cast<int>(dtype));
    key += buf;
    if (kind == RequestKind::Distributed) {
        std::snprintf(buf, sizeof(buf), "|n%d|g%llu|s%d|m%d|sch%d|l%.17g",
                      numGpus,
                      static_cast<unsigned long long>(globalBatch),
                      static_cast<int>(strategy),
                      hybrid.numMicroBatches,
                      static_cast<int>(hybrid.schedule), linkGBps);
        key += buf;
    }
    if (kind == RequestKind::Hybrid || kind == RequestKind::Simulate) {
        std::snprintf(buf, sizeof(buf),
                      "|n%d|g%llu|tp%d|pp%d|dp%d|m%d|sch%d|v%d|r%d|l%.17g",
                      numGpus,
                      static_cast<unsigned long long>(globalBatch),
                      hybrid.tpDegree, hybrid.ppDegree, hybrid.dpDegree,
                      hybrid.numMicroBatches,
                      static_cast<int>(hybrid.schedule),
                      hybrid.virtualStagesPerGpu,
                      hybrid.recomputeActivations ? 1 : 0, linkGBps);
        key += buf;
        if (kind == RequestKind::Simulate) {
            // The jitter stream is part of the forecast's identity;
            // only identical (fraction, seed) pairs may coalesce.
            std::snprintf(buf, sizeof(buf), "|j%.17g|s%llu",
                          jitterFraction,
                          static_cast<unsigned long long>(simSeed));
            key += buf;
        }
    }
    if (kind == RequestKind::HybridSweep) {
        std::snprintf(buf, sizeof(buf), "|n%d|g%llu|l%.17g", numGpus,
                      static_cast<unsigned long long>(globalBatch),
                      linkGBps);
        key += buf;
    }
    key += '@';
    key += gpuFeatureFingerprint(gpu);
    return key;
}

} // namespace neusight::serve
