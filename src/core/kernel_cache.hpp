/**
 * @file
 * The kernel-prediction-cache seam of the core predictor: a minimal
 * interface NeuSight consults before re-deriving a kernel forecast,
 * plus the canonical (kernel, GPU) fingerprint both sides key on. The
 * serving layer's sharded LRU cache (serve/prediction_cache.hpp) is one
 * implementation; core itself depends only on this header, so serve/
 * stays a pure consumer of core and can split into its own library.
 */

#ifndef NEUSIGHT_CORE_KERNEL_CACHE_HPP
#define NEUSIGHT_CORE_KERNEL_CACHE_HPP

#include <string>

#include "gpusim/gpu_spec.hpp"
#include "gpusim/kernel_desc.hpp"

namespace neusight::core {

struct PredictionDetail;

/**
 * Memoization point for per-kernel forecasts. Implementations must be
 * safe for concurrent lookup/insert: NeuSight consults the cache from
 * every predict*() call, and trained predictors are documented as
 * concurrently usable.
 */
class KernelPredictionCache
{
  public:
    virtual ~KernelPredictionCache() = default;

    /** Find @p key; on a hit copy the entry to @p out, return true. */
    virtual bool lookup(const std::string &key,
                        PredictionDetail &out) = 0;

    /** Insert (or refresh) @p key. */
    virtual void insert(const std::string &key,
                        const PredictionDetail &detail) = 0;
};

/**
 * Canonical fingerprint of a (kernel, GPU) prediction: two kernels with
 * the same fingerprint are guaranteed the same forecast. With
 * @p canonical_op (the NeuSight wiring) the kernel side canonicalizes
 * the op name through canonicalOpName — fused and backward kernels
 * predict through their base operator's tile entry, so they share an
 * entry. Generic backends (serve::CachedPredictor) key on the raw op
 * name instead: an arbitrary inner predictor may distinguish kernels
 * the NeuSight feature set does not. The GPU side covers every public
 * feature the predictor reads, so hypothetical JSON-defined GPUs key
 * correctly even when they share a name with a database entry.
 */
std::string cacheFingerprint(const gpusim::KernelDesc &desc,
                             const gpusim::GpuSpec &gpu,
                             bool canonical_op = true);

/**
 * The kernel half of cacheFingerprint: everything the key derives from
 * the descriptor, without the GPU suffix. Batched prediction
 * (NeuSight::predictKernelsMs, serve::CachedPredictor) prices kernels
 * against a fixed GPU, so it renders this half per kernel and appends
 * gpuFeatureFingerprint rendered once per call —
 * kernelFingerprintPart(d, c) + gpuFeatureFingerprint(g) ==
 * cacheFingerprint(d, g, c) by construction.
 */
std::string kernelFingerprintPart(const gpusim::KernelDesc &desc,
                                  bool canonical_op = true);

/**
 * The GPU half of every cache key: name plus each public feature
 * (Table 4). Shared with the serving layer's request fingerprints so
 * the two keys cannot silently diverge when GpuSpec grows a field.
 */
std::string gpuFeatureFingerprint(const gpusim::GpuSpec &gpu);

} // namespace neusight::core

#endif // NEUSIGHT_CORE_KERNEL_CACHE_HPP
