/**
 * @file
 * The shared soak harness: what every closed-loop soak and sweep bench
 * used to re-implement. FlagParser (`--name=value` flags), JsonWriter
 * (one writer for every BENCH_*.json and the benches' stdout),
 * EchoSchema (the echo service most serving benches run), ExecLedger
 * (server-side execution counts, the exactly-once ground truth),
 * AnswerBook + Verdict (client-side reply attribution and the one
 * wrong/unknown/lost/duplicate verdict), ReplyHarvester (per-worker
 * reply cursors) and Gates (the `require()` exit status). Each bench
 * keeps only what is its own: fault schedules, schema swaps, tenant
 * mixes, the streaming protocol and the gates it checks.
 */
#ifndef PROTOACC_HARNESS_SOAK_H
#define PROTOACC_HARNESS_SOAK_H

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "proto/descriptor.h"
#include "proto/message.h"
#include "rpc/rpc.h"

namespace protoacc::rpc {
class RpcServerRuntime;
}  // namespace protoacc::rpc

namespace protoacc::harness {

/// The echo service: EchoRequest and EchoResponse each carry
/// `optional string text = 1`, and the handler copies it across.
struct EchoSchema
{
    EchoSchema();
    EchoSchema(const EchoSchema &) = delete;

    /// The method handler: the response echoes the request's text.
    rpc::Handler
    Handler() const
    {
        return [this](const proto::Message &req, proto::Message rsp) {
            rsp.SetString(*response_text, req.GetString(*request_text));
        };
    }

    proto::DescriptorPool pool;
    int request = -1;
    int response = -1;
    const proto::FieldDescriptor *request_text = nullptr;
    const proto::FieldDescriptor *response_text = nullptr;
};

/// Decimal, or hex with a 0x prefix (garbage parses as 0, like strtoull).
uint64_t ParseFlagInt(const char *value);

/**
 * `--name=value` command-line flags: integers (ParseFlagInt), doubles,
 * strings, comma-separated uint32 lists, or a callback for values with
 * bench-specific units. Anything else prints the usage line and exits 1.
 */
class FlagParser
{
  public:
    explicit FlagParser(std::string program) : program_(std::move(program)) {}

    void Add(const char *name, const char *meta,
             std::function<void(const char *value)> set)
    {
        flags_.push_back({name, meta, std::move(set)});
    }

    template <typename T>
    void
    Add(const char *name, const char *meta, T *out)
    {
        Add(name, meta, [out](const char *v) {
            if constexpr (std::is_same_v<T, std::string>)
                *out = v;
            else if constexpr (std::is_same_v<T, std::vector<uint32_t>>)
                *out = ParseList(v);
            else if constexpr (std::is_floating_point_v<T>)
                *out = std::strtod(v, nullptr);
            else
                *out = static_cast<T>(ParseFlagInt(v));
        });
    }

    /// "usage: PROGRAM [--name=META] ..."
    std::string Usage() const;
    void Parse(int argc, char **argv) const;

  private:
    static std::vector<uint32_t> ParseList(const char *value);

    struct Flag
    {
        std::string name, meta;
        std::function<void(const char *)> set;
    };
    std::string program_;
    std::vector<Flag> flags_;
};

/// @p s as a quoted, escaped JSON string.
std::string JsonQuote(std::string_view s);

/**
 * Streaming JSON writer: fields in call order, one per line, two spaces
 * of indent per level. Keys are ignored (pass nullptr) for array
 * elements and the root. Doubles take an explicit printf format so each
 * figure keeps its precision.
 */
class JsonWriter
{
  public:
    JsonWriter &BeginObject(const char *key = nullptr)
    {
        return Open(key, '{');
    }
    JsonWriter &BeginArray(const char *key = nullptr)
    {
        return Open(key, '[');
    }
    JsonWriter &EndObject() { return Close('}'); }
    JsonWriter &EndArray() { return Close(']'); }

    JsonWriter &Uint(const char *key, uint64_t v)
    {
        return Raw(key, std::to_string(v));
    }
    JsonWriter &Int(const char *key, int64_t v)
    {
        return Raw(key, std::to_string(v));
    }
    JsonWriter &Bool(const char *key, bool v)
    {
        return Raw(key, v ? "true" : "false");
    }
    JsonWriter &Str(const char *key, std::string_view v)
    {
        return Raw(key, JsonQuote(v));
    }
    JsonWriter &Num(const char *key, double value, const char *format);

    /// The document, newline-terminated.
    std::string str() const { return out_ + "\n"; }
    /// Write str() to @p path and print "wrote PATH"; false (reported
    /// on stderr) when the file cannot be written.
    bool WriteFile(const std::string &path) const;

  private:
    JsonWriter &Raw(const char *key, const std::string &text);
    JsonWriter &Open(const char *key, char bracket);
    JsonWriter &Close(char bracket);

    std::string out_;
    /// Per open container: whether it has a child yet.
    std::vector<bool> has_child_;
};

/**
 * Server-side execution count per logical call. Record() is
 * thread-safe (handlers and exec observers run on worker threads); the
 * readers want a quiescent runtime.
 */
class ExecLedger
{
  public:
    explicit ExecLedger(uint64_t calls)
        : size_(calls), execs_(new std::atomic<uint32_t>[calls]())
    {
    }

    /// One execution of call @p idx; out-of-range indices are ignored.
    void
    Record(uint64_t idx)
    {
        if (idx < size_)
            execs_[idx].fetch_add(1, std::memory_order_relaxed);
    }

    /// Record every execution @p runtime's exec observer reports, where
    /// call i carries idempotency key @p first_key + i. Before Start().
    void Observe(rpc::RpcServerRuntime *runtime, uint64_t first_key);

    /// Executions beyond the first, summed over all calls.
    uint64_t duplicates() const;
    /// FNV-1a over the per-call counts in call order: a same-seed
    /// replay fingerprint of which call ran how often.
    uint64_t digest() const;

  private:
    uint64_t size_;
    std::unique_ptr<std::atomic<uint32_t>[]> execs_;
};

/// The exactly-once verdict, under the names check_bench_guard.py
/// requires to be 0 (all but `answered`).
struct Verdict
{
    uint64_t answered = 0;
    uint64_t wrong_responses = 0;    ///< answers that failed the check
    uint64_t unknown_responses = 0;  ///< responses no call could claim
    uint64_t lost_calls = 0;
    uint64_t duplicate_execs = 0;

    bool operator==(const Verdict &) const = default;
    /// The five fields, in declaration order.
    void Write(JsonWriter *json) const;
};

/**
 * Client-side reply attribution for logical calls 0..calls-1, where
 * call i travels with call_id i + 1. Each call is settled once.
 */
class AnswerBook
{
  public:
    explicit AnswerBook(uint64_t calls) : answered_(calls, false) {}

    /// The index of the unanswered call @p frame responds to, or -1
    /// (counted as an unknown response).
    int64_t Claim(const rpc::Frame &frame);
    /// Settle call @p idx; an answer that failed its check counts as
    /// wrong but still settles the call.
    void Answer(uint64_t idx, bool correct);

    bool answered(uint64_t idx) const { return answered_[idx]; }
    uint64_t unanswered() const
    {
        return answered_.size() - verdict_.answered;
    }
    /// Unanswered calls count as lost; duplicates come from @p ledger.
    Verdict verdict(const ExecLedger &ledger) const;

  private:
    std::vector<bool> answered_;
    Verdict verdict_;
};

/**
 * Per-worker reply cursors: each Harvest() visits only the frames
 * committed since the last one, skipping frames that fail their CRC. A
 * truncated or unknown-version tail ends the scan of that stream.
 */
class ReplyHarvester
{
  public:
    using OnFrame = std::function<void(const rpc::Frame &)>;

    void Harvest(uint32_t stream, const rpc::FrameBuffer &buffer,
                 const OnFrame &on_frame);
    /// Every worker's reply stream, dead workers' included.
    void Harvest(const rpc::RpcServerRuntime &runtime,
                 const OnFrame &on_frame);

  private:
    std::vector<size_t> offsets_;
};

/// The acceptance gates: each failed one prints "FAIL: what".
class Gates
{
  public:
    void Require(bool cond, const std::string &what);
    /// The four exactly-once gates on @p v, worded for @p who.
    void RequireExactlyOnce(const Verdict &v, const std::string &who);
    bool ok() const { return ok_; }
    /// Print "LABEL: PASS|FAIL"; returns the process exit status.
    int Report(const char *label) const;

  private:
    bool ok_ = true;
};

}  // namespace protoacc::harness

#endif  // PROTOACC_HARNESS_SOAK_H
