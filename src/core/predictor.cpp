#include "core/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/logging.hpp"
#include "core/features.hpp"
#include "obs/trace.hpp"
#include "gpusim/device.hpp"
#include "gpusim/tile_policy.hpp"
#include "nn/autograd.hpp"

namespace neusight::core {

using gpusim::GpuSpec;
using gpusim::KernelDesc;
using gpusim::OpType;
using gpusim::TileInfo;
using gpusim::TilePolicy;

namespace {

/** Per-SM roofline (Eq. 1, per-SM normalized; see DESIGN.md Section 3). */
double
rooflinePerSm(const KernelDesc &desc, const TileInfo &tile,
              const GpuSpec &gpu)
{
    const double peak = gpusim::effectivePeakFlops(desc, gpu);
    const double k = tile.flopsPerTile / tile.memBytesPerTile;
    return std::min(k * gpu.memBwPerSm(), peak / gpu.numSms);
}

} // namespace

KernelPredictor::Precision
parsePrecision(const std::string &name)
{
    if (name == "f64")
        return KernelPredictor::Precision::F64;
    if (name == "f32")
        return KernelPredictor::Precision::F32;
    fatal("unknown precision '" + name + "' (expected f64 or f32)");
}

const char *
precisionName(KernelPredictor::Precision precision)
{
    return precision == KernelPredictor::Precision::F32 ? "f32" : "f64";
}

std::string
canonicalOpName(const std::string &op_name)
{
    std::string base = op_name;
    const size_t plus = base.find('+');
    if (plus != std::string::npos)
        base = base.substr(0, plus);
    constexpr std::string_view kBwd = "_bwd";
    if (base.size() > kBwd.size() &&
        base.compare(base.size() - kBwd.size(), kBwd.size(), kBwd) == 0)
        base = base.substr(0, base.size() - kBwd.size());
    return base;
}

KernelPredictor::KernelPredictor(OpType type, const PredictorConfig &config_)
    : opType(type), config(config_)
{
    nn::MlpConfig mcfg;
    mcfg.inputDim = kNumFeatures;
    mcfg.hiddenDim = config.hiddenDim;
    mcfg.hiddenLayers = config.hiddenLayers;
    mcfg.outputDim = 2; // (alpha, beta) before the sigmoid (Eq. 8).
    mcfg.seed = config.seed + static_cast<uint64_t>(type) * 101;
    mlp = std::make_unique<nn::Mlp>(mcfg);

    // Bias the sigmoid outputs toward alpha ~ 0.82, beta ~ 0.18 so the
    // initial utilization is positive for every wave count (training
    // through the clamped law would otherwise start with dead gradients
    // on single-wave samples).
    Matrix &out_bias = mlp->parameters().back().node()->value;
    out_bias.at(0, 0) = 1.5;
    out_bias.at(0, 1) = -1.5;

    scaler.setClampToFitRange(config.clampFeatures);
}

nn::TrainHistory
KernelPredictor::train(const dataset::OperatorDataset &data)
{
    ensure(!data.samples.empty(),
           "KernelPredictor::train: empty dataset for family " +
               std::string(gpusim::opTypeName(opType)));

    const size_t n = data.samples.size();
    Matrix features(n, kNumFeatures);
    std::vector<double> target_ms(n);
    auto waves = std::make_shared<std::vector<double>>(n);
    auto lat_const = std::make_shared<std::vector<double>>(n);

    for (size_t i = 0; i < n; ++i) {
        const auto &s = data.samples[i];
        const GpuSpec &gpu = gpusim::findGpu(s.gpuName);
        const std::vector<double> f =
            buildFeatures(s.desc, s.launch.tile, s.launch.numWaves, gpu);
        for (size_t c = 0; c < kNumFeatures; ++c)
            features.at(i, c) = f[c];
        target_ms[i] = s.latencyMs;
        (*waves)[i] = static_cast<double>(s.launch.numWaves);
        const double roofline = rooflinePerSm(s.desc, s.launch.tile, gpu);
        // Latency = C / util with C in milliseconds (Eq. 4-6).
        (*lat_const)[i] = s.launch.tile.flopsPerTile *
                          static_cast<double>(s.launch.numWaves) / roofline *
                          1e3;
    }
    const Matrix scaled = scaler.fitTransform(features);

    // Observed utilization floor: target = C / util, so util = C / target.
    // Keep half the lowest value seen as the inference-side lower bound
    // (see utilizationFloor()).
    double min_util_seen = 1.0;
    for (size_t i = 0; i < n; ++i) {
        if (target_ms[i] <= 0.0)
            continue;
        const double util =
            std::clamp((*lat_const)[i] / target_ms[i], 0.0, 1.0);
        if (util > 0.0)
            min_util_seen = std::min(min_util_seen, util);
    }
    utilFloor = std::max(kMinUtil, 0.5 * min_util_seen);

    nn::Mlp &net = *mlp;
    const bool sigmoid_bound = config.sigmoidBound;
    const bool wave_term = config.waveTerm;
    nn::ForwardFn fwd = [&net, waves, lat_const, sigmoid_bound,
                         wave_term](const nn::Batch &batch) {
        std::vector<double> batch_waves;
        std::vector<double> batch_const;
        batch_waves.reserve(batch.indices.size());
        batch_const.reserve(batch.indices.size());
        for (size_t idx : batch.indices) {
            batch_waves.push_back(wave_term ? (*waves)[idx] : 1e12);
            batch_const.push_back((*lat_const)[idx]);
        }
        nn::Var x = nn::constant(batch.x);
        nn::Var alpha_beta = net.forward(x);
        if (sigmoid_bound)
            alpha_beta = nn::sigmoidAv(alpha_beta); // Eq. 8
        nn::Var util = nn::clampMinAv(
            nn::utilizationLawAv(alpha_beta, batch_waves), kMinUtil); // Eq. 7
        return nn::reciprocalScaleAv(util, batch_const); // Eq. 4-6
    };
    nn::TrainHistory history = nn::fit(net, scaled, target_ms, fwd,
                                       config.train);
    if (precision_ == Precision::F32)
        mlp->syncF32(); // Training moved the weights under the snapshot.
    return history;
}

void
KernelPredictor::setPrecision(Precision precision)
{
    precision_ = precision;
    if (precision_ == Precision::F32)
        mlp->syncF32();
}

PredictionDetail
KernelPredictor::predict(const KernelDesc &desc, const GpuSpec &gpu,
                         const std::vector<uint64_t> &tile_dims) const
{
    return predictBatch({desc}, gpu, {tile_dims}).front();
}

std::vector<PredictionDetail>
KernelPredictor::predictBatch(
    const std::vector<KernelDesc> &descs, const GpuSpec &gpu,
    const std::vector<std::vector<uint64_t>> &tile_dims) const
{
    ensure(scaler.fitted(),
           "KernelPredictor::predictBatch before train/load");
    ensure(descs.size() == tile_dims.size(),
           "KernelPredictor::predictBatch: one tile vector per kernel");
    const size_t n = descs.size();
    std::vector<PredictionDetail> details(n);
    if (n == 0)
        return details;

    const std::vector<gpusim::LaunchGeometry> launches =
        TilePolicy::launchBatch(descs, tile_dims, gpu);
    Matrix features(n, kNumFeatures);
    for (size_t i = 0; i < n; ++i) {
        PredictionDetail &detail = details[i];
        detail.tileDims = tile_dims[i];
        detail.numTiles = launches[i].numTiles;
        detail.numWaves = launches[i].numWaves;
        const std::vector<double> f = buildFeatures(
            descs[i], launches[i].tile, detail.numWaves, gpu);
        for (size_t c = 0; c < kNumFeatures; ++c)
            features.at(i, c) = f[c];
    }

    // One scale + one tape-free MLP pass for the whole batch. Each output
    // row only depends on its own input row, so this is bit-identical to
    // N single-row forwards (see Mlp::inferRows). Feature construction
    // and scaling always run in double; the F32 lane narrows the scaled
    // batch once and runs the fused single-precision kernels instead.
    Matrix alpha_beta =
        precision_ == Precision::F32
            ? mlp->inferRowsF32(
                     MatrixF32::fromMatrix(scaler.transform(features)))
                  .toMatrix()
            : mlp->inferRows(scaler.transform(features));
    if (config.sigmoidBound)
        alpha_beta.apply(
            [](double v) { return 1.0 / (1.0 + std::exp(-v)); });

    for (size_t i = 0; i < n; ++i) {
        PredictionDetail &detail = details[i];
        detail.alpha = alpha_beta.at(i, 0);
        detail.beta = alpha_beta.at(i, 1);
        const double wave_div =
            config.waveTerm ? static_cast<double>(detail.numWaves) : 1e12;
        const double util = detail.alpha - detail.beta / wave_div;
        // The sigmoid already bounds util below 1; without it (ablation)
        // the only remaining bound is positivity.
        detail.utilization = config.sigmoidBound
                                 ? std::clamp(util, utilFloor, 1.0)
                                 : std::max(util, kMinUtil);
        detail.rooflinePerSm =
            rooflinePerSm(descs[i], launches[i].tile, gpu);
        detail.latencyMs = launches[i].tile.flopsPerTile /
                           (detail.rooflinePerSm * detail.utilization) *
                           static_cast<double>(detail.numWaves) * 1e3;
    }
    return details;
}

void
KernelPredictor::save(std::ostream &out) const
{
    mlp->saveParameters(out);
    scaler.save(out);
    out.write(reinterpret_cast<const char *>(&utilFloor),
              sizeof(utilFloor));
}

void
KernelPredictor::load(std::istream &in)
{
    mlp->loadParameters(in);
    scaler.load(in);
    in.read(reinterpret_cast<char *>(&utilFloor), sizeof(utilFloor));
    if (!in || utilFloor < 0.0 || utilFloor > 1.0)
        fatal("KernelPredictor::load: corrupt utilization floor");
    if (precision_ == Precision::F32)
        mlp->syncF32(); // Loading replaced the weights under the snapshot.
}

NeuSight::NeuSight(const PredictorConfig &config_) : config(config_)
{
    for (OpType type :
         {OpType::BatchedMatmul, OpType::FullyConnected, OpType::Elementwise,
          OpType::Softmax, OpType::LayerNorm}) {
        predictors[type] =
            std::make_unique<KernelPredictor>(type, config);
    }
}

void
NeuSight::train(
    const std::map<OpType, dataset::OperatorDataset> &corpus)
{
    for (const auto &[type, data] : corpus) {
        // Every observed launch feeds the tile database (Section 6.1).
        for (const auto &sample : data.samples)
            tileDb.record(sample.desc, sample.launch.tile.dims,
                          gpusim::findGpu(sample.gpuName));
        const auto it = predictors.find(type);
        if (it == predictors.end())
            continue; // Memory-fallback family: no learned predictor.
        it->second->train(data);
    }
}

double
NeuSight::predictKernelMs(const KernelDesc &desc, const GpuSpec &gpu) const
{
    return predictKernelDetail(desc, gpu).latencyMs;
}

void
NeuSight::attachCache(std::shared_ptr<KernelPredictionCache> cache)
{
    cache_ = std::move(cache);
}

void
NeuSight::setPrecision(KernelPredictor::Precision precision)
{
    precision_ = precision;
    for (auto &[type, pred] : predictors)
        pred->setPrecision(precision);
}

PredictionDetail
NeuSight::predictKernelDetail(const KernelDesc &desc,
                              const GpuSpec &gpu) const
{
    std::string key;
    PredictionDetail detail;
    if (cache_) {
        key = cacheFingerprint(desc, gpu);
        if (cache_->lookup(key, detail))
            return detail;
    }
    const auto it = predictors.find(desc.type);
    if (it == predictors.end()) {
        // Unseen operator family: memory-bound estimate (Section 4.3).
        detail.memoryFallback = true;
        detail.latencyMs = desc.memBytes / gpu.memBwBytes() * 1e3;
    } else {
        // Fused kernels look up the tile of their first operator
        // (Section 4.4).
        KernelDesc lookup = desc;
        lookup.opName = canonicalOpName(desc.opName);
        const std::vector<uint64_t> tile = tileDb.lookup(lookup, gpu);
        detail = it->second->predict(desc, gpu, tile);
    }
    if (cache_)
        cache_->insert(key, detail);
    return detail;
}

std::vector<double>
NeuSight::predictKernelsMs(const std::vector<KernelDesc> &descs,
                           const GpuSpec &gpu) const
{
    const size_t n = descs.size();
    std::vector<double> out(n, 0.0);
    if (n == 0)
        return out;
    obs::Tracer &tracer = obs::Tracer::global();
    obs::TraceSpan batch_span("neusight.predict_kernels", "core", tracer);

    // 1. Dedup: transformer graphs dispatch the same few dozen kernel
    // shapes across every layer, so group by the canonical fingerprint
    // (equal fingerprint guarantees an equal forecast). The GPU is
    // fixed across the batch, so nodes hash only the kernel half of
    // the key; the GPU suffix is appended once per unique kernel when
    // talking to the cache.
    struct Unique
    {
        const KernelDesc *desc = nullptr;
        std::string key;
        PredictionDetail detail;
        bool resolved = false;
    };
    std::vector<Unique> uniques;
    std::unordered_map<std::string, size_t> slot_of;
    std::vector<size_t> slot(n);
    {
        obs::TraceSpan dedup("neusight.dedup", "core", tracer);
        for (size_t i = 0; i < n; ++i) {
            std::string key = kernelFingerprintPart(descs[i]);
            const auto [it, inserted] =
                slot_of.emplace(std::move(key), uniques.size());
            if (inserted)
                uniques.push_back({&descs[i], it->first, {}, false});
            slot[i] = it->second;
        }

        // 2. Resolve from the attached prediction cache first.
        if (cache_) {
            const std::string gpu_part = gpuFeatureFingerprint(gpu);
            for (Unique &u : uniques) {
                u.key += gpu_part;
                u.resolved = cache_->lookup(u.key, u.detail);
            }
        }
    }

    // 3. Batch the remaining misses. All learned-family misses resolve
    // their tiles through ONE TileDatabase::lookupBatch pass (the
    // per-record GPU-gap and log-dimension terms are shared across the
    // whole batch), then each operator family runs one matrix pass;
    // families without a learned predictor take the memory fallback.
    std::map<OpType, std::vector<size_t>> families;
    std::vector<KernelDesc> tile_queries;
    std::vector<size_t> tile_query_of;
    std::vector<std::vector<uint64_t>> resolved_tiles;
    {
        obs::TraceSpan build("neusight.batch_build", "core", tracer);
        for (size_t u = 0; u < uniques.size(); ++u)
            if (!uniques[u].resolved)
                families[uniques[u].desc->type].push_back(u);
        tile_query_of.assign(uniques.size(), size_t(-1));
        for (const auto &[type, members] : families) {
            if (predictors.find(type) == predictors.end())
                continue;
            for (size_t u : members) {
                // Fused kernels look up the tile of their first
                // operator (Section 4.4).
                KernelDesc lookup = *uniques[u].desc;
                lookup.opName = canonicalOpName(lookup.opName);
                tile_query_of[u] = tile_queries.size();
                tile_queries.push_back(std::move(lookup));
            }
        }
        resolved_tiles = tileDb.lookupBatch(tile_queries, gpu);
    }
    obs::TraceSpan predict("neusight.predict_batch", "core", tracer);
    for (const auto &[type, members] : families) {
        const auto it = predictors.find(type);
        if (it == predictors.end()) {
            // Unseen operator family: memory-bound estimate (Section 4.3).
            for (size_t u : members) {
                uniques[u].detail.memoryFallback = true;
                uniques[u].detail.latencyMs =
                    uniques[u].desc->memBytes / gpu.memBwBytes() * 1e3;
            }
        } else {
            std::vector<KernelDesc> batch;
            std::vector<std::vector<uint64_t>> tiles;
            batch.reserve(members.size());
            tiles.reserve(members.size());
            for (size_t u : members) {
                tiles.push_back(resolved_tiles[tile_query_of[u]]);
                batch.push_back(*uniques[u].desc);
            }
            std::vector<PredictionDetail> predicted =
                it->second->predictBatch(batch, gpu, tiles);
            for (size_t m = 0; m < members.size(); ++m)
                uniques[members[m]].detail = std::move(predicted[m]);
        }
        if (cache_)
            for (size_t u : members)
                cache_->insert(uniques[u].key, uniques[u].detail);
    }

    // 4. Fan the unique forecasts back out to the request order.
    for (size_t i = 0; i < n; ++i)
        out[i] = uniques[slot[i]].detail.latencyMs;
    return out;
}

double
NeuSight::predictGraphMs(const graph::KernelGraph &g, const GpuSpec &gpu) const
{
    return predictTableMs(graph::compileGraph(g), gpu);
}

namespace {
constexpr uint32_t kModelMagic = 0x4e534d32; // "NSM2"
} // namespace

void
NeuSight::save(const std::string &path) const
{
    // Write-then-rename so a concurrent reader (or a crash mid-write)
    // never observes a half-written model file.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary);
        if (!out)
            fatal("NeuSight::save: cannot open '" + tmp + "'");
        out.write(reinterpret_cast<const char *>(&kModelMagic),
                  sizeof(kModelMagic));
        const uint64_t count = predictors.size();
        out.write(reinterpret_cast<const char *>(&count), sizeof(count));
        for (const auto &[type, pred] : predictors) {
            const uint32_t type_id = static_cast<uint32_t>(type);
            out.write(reinterpret_cast<const char *>(&type_id),
                      sizeof(type_id));
            pred->save(out);
        }
        tileDb.save(out);
        if (!out)
            fatal("NeuSight::save: write failed for '" + tmp + "'");
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        fatal("NeuSight::save: cannot rename '" + tmp + "' to '" + path +
              "': " + ec.message());
}

void
NeuSight::load(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("NeuSight::load: cannot open '" + path + "'");
    uint32_t magic = 0;
    uint64_t count = 0;
    in.read(reinterpret_cast<char *>(&magic), sizeof(magic));
    in.read(reinterpret_cast<char *>(&count), sizeof(count));
    if (!in || magic != kModelMagic)
        fatal("NeuSight::load: bad header in '" + path + "'");
    if (count != predictors.size())
        fatal("NeuSight::load: predictor count mismatch in '" + path + "'");
    for (uint64_t i = 0; i < count; ++i) {
        uint32_t type_id = 0;
        in.read(reinterpret_cast<char *>(&type_id), sizeof(type_id));
        const auto it = predictors.find(static_cast<OpType>(type_id));
        if (it == predictors.end())
            fatal("NeuSight::load: unknown predictor family in file");
        it->second->load(in);
    }
    tileDb.load(in);
}

NeuSight
NeuSight::trainOrLoad(const std::string &path,
                      const std::vector<GpuSpec> &gpus,
                      const dataset::SamplerConfig &sampler,
                      const PredictorConfig &config)
{
    NeuSight framework(config);
    if (std::filesystem::exists(path)) {
        try {
            framework.load(path);
            return framework;
        } catch (const std::exception &e) {
            warn("NeuSight: stale/corrupt cache '" + path +
                 "' (" + e.what() + "); retraining");
        }
    }
    inform("NeuSight: training predictors (cache miss: " + path + ")");
    const auto corpus = dataset::generateOperatorData(gpus, sampler);
    framework.train(corpus);
    framework.save(path);
    return framework;
}

} // namespace neusight::core
