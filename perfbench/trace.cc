#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

struct ThreadBuffer
{
    uint16_t thread = 0;
    std::vector<Span> spans;
};

struct Registry
{
    std::mutex mu;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;  // guarded by mu
};

Registry &
GetRegistry()
{
    static Registry registry;
    return registry;
}

ThreadBuffer *
ThisThreadBuffer()
{
    thread_local ThreadBuffer *buffer = [] {
        Registry &r = GetRegistry();
        std::lock_guard<std::mutex> lock(r.mu);
        r.buffers.push_back(std::make_unique<ThreadBuffer>());
        r.buffers.back()->thread =
            static_cast<uint16_t>(r.buffers.size() - 1);
        return r.buffers.back().get();
    }();
    return buffer;
}

}  // namespace

const char *
StageName(Stage stage)
{
    switch (stage) {
    case Stage::kBatch:
        return "batch";
    case Stage::kEncode:
        return "rpc.frame_encode";
    case Stage::kSubmit:
        return "rpc.submit";
    case Stage::kDrain:
        return "rpc.drain";
    case Stage::kProtoDeser:
        return "proto.deser";
    case Stage::kProtoSize:
        return "proto.size";
    case Stage::kProtoSer:
        return "proto.ser";
    case Stage::kProtoCopy:
        return "proto.copy";
    case Stage::kAccelDeser:
        return "accel.deser";
    case Stage::kAccelSer:
        return "accel.ser";
    case Stage::kCount:
        break;
    }
    return "?";
}

int64_t
NowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
RecordSpan(Stage stage, int64_t start_ns, int64_t end_ns, uint64_t bytes)
{
    ThreadBuffer *buffer = ThisThreadBuffer();
    Span span;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.bytes = bytes;
    span.thread = buffer->thread;
    span.stage = stage;
    buffer->spans.push_back(span);
}

void
HarvestSpans(uint32_t batch, std::vector<Span> *out)
{
    Registry &r = GetRegistry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (auto &buffer : r.buffers) {
        for (Span &span : buffer->spans) {
            span.batch = batch;
            out->push_back(span);
        }
        buffer->spans.clear();
    }
}

void
AttributeBatch(const std::vector<Span> &spans, StageTotals *totals)
{
    const auto batch = std::find_if(
        spans.begin(), spans.end(),
        [](const Span &s) { return s.stage == Stage::kBatch; });
    if (batch == spans.end())
        return;
    const int64_t t0 = batch->start_ns;
    const int64_t t1 = batch->end_ns;

    struct Edge
    {
        int64_t at;
        int delta;
        Stage stage;
    };
    std::vector<Edge> edges;
    edges.reserve(2 * spans.size());
    for (const Span &s : spans) {
        if (s.stage == Stage::kBatch)
            continue;
        const size_t k = static_cast<size_t>(s.stage);
        totals->span_ns[k] += static_cast<double>(s.end_ns - s.start_ns);
        totals->bytes[k] += s.bytes;
        if (s.stage == Stage::kDrain)
            continue;  // waiting, not work: its time goes to the workers
        const int64_t lo = std::max(s.start_ns, t0);
        const int64_t hi = std::min(s.end_ns, t1);
        if (hi > lo) {
            edges.push_back({lo, +1, s.stage});
            edges.push_back({hi, -1, s.stage});
        }
    }
    std::sort(edges.begin(), edges.end(),
              [](const Edge &a, const Edge &b) { return a.at < b.at; });

    std::array<int, kNumStages> open{};
    int total_open = 0;
    int64_t prev = t0;
    for (const Edge &e : edges) {
        const double segment = static_cast<double>(e.at - prev);
        if (segment > 0) {
            if (total_open == 0) {
                totals->runtime_self_ns += segment;
            } else {
                for (size_t k = 0; k < kNumStages; ++k)
                    if (open[k] > 0)
                        totals->wall_ns[k] +=
                            segment * open[k] / total_open;
            }
        }
        prev = e.at;
        open[static_cast<size_t>(e.stage)] += e.delta;
        total_open += e.delta;
    }
    totals->runtime_self_ns += static_cast<double>(t1 - prev);
    totals->batch_ns += static_cast<double>(t1 - t0);
}

bool
WriteChromeTrace(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    int64_t origin = 0;
    for (const Span &s : spans)
        if (origin == 0 || s.start_ns < origin)
            origin = s.start_ns;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(
            f,
            "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"batch\":%u,"
            "\"parent\":\"%s\",\"bytes\":%llu}}%s\n",
            StageName(s.stage), static_cast<unsigned>(s.thread),
            static_cast<double>(s.start_ns - origin) / 1e3,
            static_cast<double>(s.end_ns - s.start_ns) / 1e3,
            static_cast<unsigned>(s.batch),
            s.stage == Stage::kBatch ? "" : "batch",
            static_cast<unsigned long long>(s.bytes),
            i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

}  // namespace perfbench
