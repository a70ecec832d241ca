#include "graph/latency_predictor.hpp"

#include <cstring>

#include "obs/trace.hpp"

namespace neusight::graph {

namespace {

uint64_t
bitsOf(double value)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t
mix(uint64_t h, uint64_t word)
{
    return (h ^ word) * kFnvPrime;
}

/** FNV-style hash over the fields sameKernel() compares. */
uint64_t
kernelHash(const gpusim::KernelDesc &desc)
{
    uint64_t h = kFnvOffset;
    for (const char c : desc.opName)
        h = mix(h, static_cast<unsigned char>(c));
    h = mix(h, static_cast<uint64_t>(desc.type));
    h = mix(h, desc.outDims.size());
    for (const uint64_t d : desc.outDims)
        h = mix(h, d);
    h = mix(h, desc.reduceDim);
    h = mix(h, bitsOf(desc.flops));
    h = mix(h, bitsOf(desc.memBytes));
    h = mix(h, static_cast<uint64_t>(desc.dtype) << 1 |
                   (desc.usesTensorCore ? 1u : 0u));
    return h ^ (h >> 29);
}

// sameKernel() and kernelHash() must cover every KernelDesc field: a
// field they miss would merge kernels a predictor tells apart. A new
// field changes the size and stops the build here until both cover it.
static_assert(sizeof(gpusim::KernelDesc) == 112,
              "KernelDesc changed: update sameKernel and kernelHash");

bool
sameKernel(const gpusim::KernelDesc &a, const gpusim::KernelDesc &b)
{
    return a.type == b.type && a.outDims == b.outDims &&
           a.reduceDim == b.reduceDim &&
           bitsOf(a.flops) == bitsOf(b.flops) &&
           bitsOf(a.memBytes) == bitsOf(b.memBytes) &&
           a.dtype == b.dtype && a.usesTensorCore == b.usesTensorCore &&
           a.opName == b.opName;
}

} // namespace

KernelTable
compileGraph(const KernelGraph &g)
{
    KernelTable table;
    // Open addressing over unique-kernel indices, at most half full:
    // a graph has no more unique kernels than nodes.
    size_t buckets = 16;
    while (buckets < 2 * g.nodes.size())
        buckets *= 2;
    constexpr uint32_t kEmpty = UINT32_MAX;
    std::vector<uint32_t> index(buckets, kEmpty);
    std::vector<uint64_t> hashes;
    table.slot.reserve(g.nodes.size());
    for (const KernelNode &node : g.nodes) {
        if (node.kind != NodeKind::Compute)
            continue;
        const uint64_t h = kernelHash(node.kernel);
        size_t b = h & (buckets - 1);
        while (index[b] != kEmpty &&
               !(hashes[index[b]] == h &&
                 sameKernel(table.kernels[index[b]], node.kernel)))
            b = (b + 1) & (buckets - 1);
        if (index[b] == kEmpty) {
            index[b] = static_cast<uint32_t>(table.kernels.size());
            table.kernels.push_back(node.kernel);
            hashes.push_back(h);
        }
        table.slot.push_back(index[b]);
    }
    return table;
}

std::vector<double>
LatencyPredictor::predictKernelsMs(
    const std::vector<gpusim::KernelDesc> &descs,
    const gpusim::GpuSpec &gpu) const
{
    std::vector<double> out;
    out.reserve(descs.size());
    for (const auto &desc : descs)
        out.push_back(predictKernelMs(desc, gpu));
    return out;
}

double
LatencyPredictor::predictGraphMs(const KernelGraph &g,
                                 const gpusim::GpuSpec &gpu) const
{
    obs::TraceSpan span("graph.predict", "graph");
    std::vector<gpusim::KernelDesc> descs;
    descs.reserve(g.nodes.size());
    for (const auto &node : g.nodes)
        if (node.kind == NodeKind::Compute)
            descs.push_back(node.kernel);
    double total = 0.0;
    for (double ms : predictKernelsMs(descs, gpu))
        total += ms;
    return total;
}

double
LatencyPredictor::predictTableMs(const KernelTable &table,
                                 const gpusim::GpuSpec &gpu) const
{
    obs::TraceSpan span("graph.predict", "graph");
    const std::vector<double> ms = predictKernelsMs(table.kernels, gpu);
    double total = 0.0;
    for (const uint32_t s : table.slot)
        total += ms[s];
    return total;
}

} // namespace neusight::graph
