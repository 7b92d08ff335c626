#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "util/rng.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using froram::splitmix64Mix;

double
nowUs()
{
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration<double, std::micro>(Clock::now() - origin)
        .count();
}

void
Report::note(const std::string& line)
{
    std::cerr << "# " << line << '\n';
}

std::string
Report::json() const
{
    std::ostringstream o;
    o.precision(17);
    o << "{\"correct\": " << (wrong == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, vu] : metrics_) {
        o << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
          << (std::isfinite(vu.first) ? vu.first : 0.0) << ", \"unit\": \""
          << vu.second << "\"}";
        first = false;
    }
    o << "}, \"info\": {";
    first = true;
    for (const auto& [key, value] : info_) {
        o << (first ? "" : ", ") << '"' << key << "\": \"" << value << '"';
        first = false;
    }
    o << "}}";
    return o.str();
}

std::vector<Req>
makeStream(u64 seed, u64 n, u64 blocks, Dist dist, u32 write_pct)
{
    froram::Xoshiro256 rng(splitmix64Mix(seed ^ 0x70e7fbe4c5a11ULL));
    std::vector<double> cdf;
    if (dist == Dist::Zipf) {
        // Zipf(0.99): P(rank r) ~ 1 / (r + 1)^0.99, rank r at address r.
        cdf.resize(blocks);
        double sum = 0;
        for (u64 r = 0; r < blocks; ++r) {
            sum += std::pow(static_cast<double>(r + 1), -0.99);
            cdf[r] = sum;
        }
        for (double& c : cdf)
            c /= sum;
    }
    std::vector<Req> out(n);
    for (Req& r : out) {
        if (dist == Dist::Uniform) {
            r.addr = rng.below(blocks);
        } else {
            const double u = rng.uniform();
            r.addr = static_cast<u64>(
                std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
            r.addr = std::min(r.addr, blocks - 1);
        }
        r.isWrite = rng.below(100) < write_pct;
    }
    return out;
}

std::string
streamDigest(const std::vector<Req>& stream)
{
    u64 h = 0xcbf29ce484222325ULL;
    for (const Req& r : stream) {
        const u64 word = r.addr << 1 | (r.isWrite ? 1 : 0);
        for (int i = 0; i < 8; ++i) {
            h ^= (word >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

void
Shadow::image(u64 addr, u64 version, std::vector<u8>& out) const
{
    out.resize(blockBytes_);
    for (u64 off = 0; off < blockBytes_; off += 8) {
        const u64 w = splitmix64Mix(addr * 0x9e3779b97f4a7c15ULL ^
                                    (version << 8) ^ off);
        std::memcpy(out.data() + off, &w,
                    std::min<u64>(8, blockBytes_ - off));
    }
}

bool
Shadow::check(u64 addr, u64 version, const std::vector<u8>& data) const
{
    image(addr, version, expect_);
    return data == expect_;
}

int
Tracer::begin(const char* name, int parent)
{
    if (!on_)
        return -1;
    Span s;
    s.name = name;
    s.parent = parent;
    s.startUs = nowUs();
    spans_.push_back(s);
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::end(int id)
{
    if (id >= 0)
        spans_[static_cast<size_t>(id)].endUs = nowUs();
}

void
Tracer::summarize(Report& report) const
{
    struct Agg {
        u64 count = 0;
        double total = 0;
        double self = 0;
    };
    // Covered time of each span: the union of its children's
    // intervals (children may overlap, e.g. batches in flight).
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span& s : spans_)
        if (s.parent >= 0)
            kids[static_cast<size_t>(s.parent)].push_back(
                {s.startUs, s.endUs});
    std::vector<double> childUs(spans_.size(), 0.0);
    for (size_t i = 0; i < kids.size(); ++i) {
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0, lo = 0, hi = -1;
        for (const auto& [a, b] : iv) {
            if (a > hi) {
                covered += hi > lo ? hi - lo : 0;
                lo = a;
                hi = b;
            } else {
                hi = std::max(hi, b);
            }
        }
        covered += hi > lo ? hi - lo : 0;
        childUs[i] = covered;
    }
    std::map<std::string, Agg> agg;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const double d = spans_[i].endUs - spans_[i].startUs;
        Agg& a = agg[spans_[i].name];
        ++a.count;
        a.total += d;
        a.self += d - childUs[i];
    }
    for (const auto& [name, a] : agg) {
        char line[256];
        std::snprintf(line, sizeof(line),
                      "span %-22s n=%-8llu total_ms=%-12.3f self_ms=%.3f",
                      name.c_str(), static_cast<unsigned long long>(a.count),
                      a.total / 1e3, a.self / 1e3);
        report.note(line);
    }
}

void
Tracer::write(const std::string& path) const
{
    std::ofstream f(path);
    f << std::fixed;
    f.precision(3);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        f << "{\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"parent\": " << s.parent << ", \"start_us\": "
          << s.startUs << ", \"end_us\": " << s.endUs << ", \"delta\": ["
          << s.delta[0] << ", " << s.delta[1] << ", " << s.delta[2] << ", "
          << s.delta[3] << "]}\n";
    }
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size());
    size_t idx = static_cast<size_t>(std::ceil(rank));
    idx = idx == 0 ? 0 : idx - 1;
    return v[std::min(idx, v.size() - 1)];
}

std::vector<double>
leastSquares(const std::vector<double>& x, const std::vector<double>& y,
             size_t k)
{
    const size_t n = y.size();
    std::vector<double> coef(k, 0.0);
    // Keep only columns that vary (or the intercept, column 0).
    std::vector<size_t> cols;
    for (size_t c = 0; c < k; ++c) {
        double lo = x[c], hi = x[c];
        for (size_t i = 0; i < n; ++i) {
            lo = std::min(lo, x[i * k + c]);
            hi = std::max(hi, x[i * k + c]);
        }
        if (c == 0 || hi > lo)
            cols.push_back(c);
    }
    const size_t m = cols.size();
    if (n < m)
        return coef;
    // Normal equations A b = r, solved by Gaussian elimination with
    // partial pivoting (m is at most 4).
    std::vector<double> a(m * (m + 1), 0.0);
    for (size_t i = 0; i < n; ++i)
        for (size_t p = 0; p < m; ++p) {
            const double xp = x[i * k + cols[p]];
            for (size_t q = 0; q < m; ++q)
                a[p * (m + 1) + q] += xp * x[i * k + cols[q]];
            a[p * (m + 1) + m] += xp * y[i];
        }
    for (size_t p = 0; p < m; ++p) {
        size_t piv = p;
        for (size_t r = p + 1; r < m; ++r)
            if (std::fabs(a[r * (m + 1) + p]) >
                std::fabs(a[piv * (m + 1) + p]))
                piv = r;
        for (size_t q = 0; q <= m; ++q)
            std::swap(a[p * (m + 1) + q], a[piv * (m + 1) + q]);
        const double d = a[p * (m + 1) + p];
        if (std::fabs(d) < 1e-12)
            return coef;
        for (size_t r = 0; r < m; ++r) {
            if (r == p)
                continue;
            const double f = a[r * (m + 1) + p] / d;
            for (size_t q = p; q <= m; ++q)
                a[r * (m + 1) + q] -= f * a[p * (m + 1) + q];
        }
    }
    for (size_t p = 0; p < m; ++p)
        coef[cols[p]] = a[p * (m + 1) + m] / a[p * (m + 1) + p];
    return coef;
}

double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0; // kB -> MiB
    return 0.0;
}

u64
dirBytes(const std::string& dir, const std::string& part)
{
    u64 total = 0;
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(dir, ec)) {
        if (!e.is_regular_file())
            continue;
        if (!part.empty() &&
            e.path().filename().string().find(part) == std::string::npos)
            continue;
        total += e.file_size();
    }
    return total;
}

void
freshDir(const std::string& dir)
{
    removeDir(dir);
    fs::create_directories(dir);
}

void
removeDir(const std::string& dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
}

froram::OramSystemConfig
pinnedConfig(froram::BucketSchemeKind scheme,
             froram::StorageBackendKind backend, u64 capacity_bytes,
             u64 seed)
{
    // Every behaviour-affecting field is named, so a default changing
    // under src/ cannot silently change what the benchmark measures.
    froram::OramSystemConfig c;
    c.capacityBytes = capacity_bytes;
    c.blockBytes = 64;
    c.z = 4;
    c.backend = backend;
    c.backendReset = true;
    c.plbBytes = 64 * 1024;
    c.plbWays = 1;
    c.onChipTargetBytes = 128 * 1024;
    c.storage = froram::StorageMode::Encrypted;
    c.realAes = true;
    c.seedScheme = froram::SeedScheme::GlobalCounter;
    c.seed = seed;
    c.stashCapacity = 200;
    c.bucketScheme = scheme;
    c.ringS = 0; // normalizeRing defaults
    c.ringA = 0;
    c.collectTrace = false;
    return c;
}

froram::JournalConfig
journalPolicy()
{
    froram::JournalConfig j;
    j.enabled = true;
    j.fsyncEveryRecords = 64;
    j.fsyncMaxDelayUs = 2000;
    j.segmentBytes = u64{4} << 20;
    return j;
}

} // namespace perfbench
