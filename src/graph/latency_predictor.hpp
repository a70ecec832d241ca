/**
 * @file
 * Abstract latency-predictor interface implemented by NeuSight and by
 * every baseline (roofline analysis, Habitat, Li et al.), so the
 * evaluation harness and benches can sweep them uniformly. Also the
 * compiled form of a kernel graph (KernelTable) that forecasts price:
 * a transformer graph repeats a dozen or so distinct kernels across
 * hundreds of nodes, so a graph is priced once per unique kernel.
 */

#ifndef NEUSIGHT_GRAPH_LATENCY_PREDICTOR_HPP
#define NEUSIGHT_GRAPH_LATENCY_PREDICTOR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "gpusim/gpu_spec.hpp"

namespace neusight::graph {

/**
 * A kernel graph compiled for forecasting: its unique compute kernels
 * in first-occurrence order, and for each compute node (in node order)
 * the index of its kernel in that list. GPU-independent, like the
 * graph it came from.
 */
struct KernelTable
{
    /** Unique compute kernels, in first-occurrence order. */
    std::vector<gpusim::KernelDesc> kernels;
    /** Per compute node, in node order: index into kernels. */
    std::vector<uint32_t> slot;
};

/**
 * Compile @p g. Two compute nodes share a slot only when every
 * KernelDesc field is equal, doubles bit for bit (so 0.0 and -0.0
 * differ) and the op name byte for byte, so any deterministic
 * predictor gives them equal forecasts.
 */
KernelTable compileGraph(const KernelGraph &g);

/** Predicts DNN kernel / model latency on a (possibly unseen) GPU. */
class LatencyPredictor
{
  public:
    virtual ~LatencyPredictor() = default;

    /** Display name ("NeuSight", "Roofline", "Habitat", "Li et al."). */
    virtual std::string name() const = 0;

    /** Latency of one kernel on @p gpu in milliseconds. */
    virtual double predictKernelMs(const gpusim::KernelDesc &desc,
                                   const gpusim::GpuSpec &gpu) const = 0;

    /**
     * Latencies of @p descs on @p gpu, in order. The batched seam of the
     * interface: the default loops predictKernelMs, and backends that
     * can amortize work across kernels (NeuSight dedups repeated
     * fingerprints and evaluates each operator family's MLP in one
     * matrix pass) override this once and every graph forecast
     * inherits the speedup.
     */
    virtual std::vector<double>
    predictKernelsMs(const std::vector<gpusim::KernelDesc> &descs,
                     const gpusim::GpuSpec &gpu) const;

    /**
     * Per-GPU latency of a kernel graph: kernels execute sequentially on
     * the device (Section 5), so the default sums the compute nodes'
     * predictKernelsMs latencies, one call over every compute node.
     * Caching backends override it as predictTableMs(compileGraph(g)).
     */
    virtual double predictGraphMs(const KernelGraph &g,
                                  const gpusim::GpuSpec &gpu) const;

    /**
     * Latency of a compiled graph: one predictKernelsMs call over the
     * unique kernels, then the node-order sum of their latencies — bit
     * for bit the sum predictGraphMs forms over the graph itself.
     */
    double predictTableMs(const KernelTable &table,
                          const gpusim::GpuSpec &gpu) const;
};

} // namespace neusight::graph

#endif // NEUSIGHT_GRAPH_LATENCY_PREDICTOR_HPP
