#include "harness/soak.h"

#include <cstdio>
#include <cstring>

#include "proto/schema_parser.h"
#include "rpc/server_runtime.h"

namespace protoacc::harness {

EchoSchema::EchoSchema()
{
    PA_CHECK(proto::ParseSchema(R"(
        message EchoRequest { optional string text = 1; }
        message EchoResponse { optional string text = 1; }
    )",
                                &pool)
                 .ok);
    pool.Compile(proto::HasbitsMode::kSparse);
    request = pool.FindMessage("EchoRequest");
    response = pool.FindMessage("EchoResponse");
    request_text = pool.message(request).FindFieldByName("text");
    response_text = pool.message(response).FindFieldByName("text");
}

uint64_t
ParseFlagInt(const char *value)
{
    const bool hex = value[0] == '0' && (value[1] == 'x' || value[1] == 'X');
    return std::strtoull(value, nullptr, hex ? 16 : 10);
}

std::vector<uint32_t>
FlagParser::ParseList(const char *value)
{
    std::vector<uint32_t> out;
    for (const char *p = value; *p != '\0'; ++p) {
        out.push_back(static_cast<uint32_t>(ParseFlagInt(p)));
        p = std::strchr(p, ',');
        if (p == nullptr)
            break;
    }
    return out;
}

std::string
FlagParser::Usage() const
{
    std::string usage = "usage: " + program_;
    for (const Flag &f : flags_)
        usage += " [--" + f.name + "=" + f.meta + "]";
    return usage;
}

void
FlagParser::Parse(int argc, char **argv) const
{
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const Flag *match = nullptr;
        for (const Flag &f : flags_)
            if (arg.rfind("--" + f.name + "=", 0) == 0)
                match = &f;
        if (match == nullptr) {
            std::fprintf(stderr, "%s\n", Usage().c_str());
            std::exit(1);
        }
        // An empty value is a value: --json= turns JSON output off.
        match->set(argv[i] + 3 + match->name.size());
    }
}

std::string
JsonQuote(std::string_view s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

JsonWriter &
JsonWriter::Raw(const char *key, const std::string &text)
{
    if (!has_child_.empty()) {
        out_ += has_child_.back() ? ",\n" : "\n";
        has_child_.back() = true;
        out_.append(2 * has_child_.size(), ' ');
        if (key != nullptr)
            out_ += JsonQuote(key) + ": ";
    }
    out_ += text;
    return *this;
}

JsonWriter &
JsonWriter::Open(const char *key, char bracket)
{
    Raw(key, std::string(1, bracket));
    has_child_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::Close(char bracket)
{
    const bool had_child = has_child_.back();
    has_child_.pop_back();
    if (had_child) {
        out_ += "\n";
        out_.append(2 * has_child_.size(), ' ');
    }
    out_ += bracket;
    return *this;
}

JsonWriter &
JsonWriter::Num(const char *key, double value, const char *format)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, value);
    return Raw(key, buf);
}

bool
JsonWriter::WriteFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    const std::string text = str();
    const bool ok = f != nullptr &&
                    std::fwrite(text.data(), 1, text.size(), f) ==
                        text.size();
    if (f == nullptr || std::fclose(f) != 0 || !ok) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
}

void
ExecLedger::Observe(rpc::RpcServerRuntime *runtime, uint64_t first_key)
{
    // A key below first_key wraps to a huge index, which Record drops.
    runtime->SetExecObserver([this, first_key](uint16_t, uint64_t key) {
        Record(key - first_key);
    });
}

uint64_t
ExecLedger::duplicates() const
{
    uint64_t dups = 0;
    for (uint64_t i = 0; i < size_; ++i) {
        const uint32_t n = execs_[i].load(std::memory_order_relaxed);
        dups += n > 1 ? n - 1 : 0;
    }
    return dups;
}

uint64_t
ExecLedger::digest() const
{
    uint64_t digest = 1469598103934665603ull;  // FNV-1a offset basis
    for (uint64_t i = 0; i < size_; ++i)
        digest = (digest ^ execs_[i].load(std::memory_order_relaxed)) *
                 1099511628211ull;
    return digest;
}

void
Verdict::Write(JsonWriter *json) const
{
    json->Uint("answered", answered)
        .Uint("wrong_responses", wrong_responses)
        .Uint("unknown_responses", unknown_responses)
        .Uint("lost_calls", lost_calls)
        .Uint("duplicate_execs", duplicate_execs);
}

int64_t
AnswerBook::Claim(const rpc::Frame &frame)
{
    const uint64_t idx = static_cast<uint64_t>(frame.header.call_id) - 1;
    if (frame.header.kind != rpc::FrameKind::kResponse ||
        idx >= answered_.size() || answered_[idx]) {
        ++verdict_.unknown_responses;
        return -1;
    }
    return static_cast<int64_t>(idx);
}

void
AnswerBook::Answer(uint64_t idx, bool correct)
{
    if (answered_[idx])
        return;
    answered_[idx] = true;
    ++verdict_.answered;
    verdict_.wrong_responses += correct ? 0 : 1;
}

Verdict
AnswerBook::verdict(const ExecLedger &ledger) const
{
    Verdict v = verdict_;
    v.lost_calls = unanswered();
    v.duplicate_execs = ledger.duplicates();
    return v;
}

void
ReplyHarvester::Harvest(uint32_t stream, const rpc::FrameBuffer &buffer,
                        const OnFrame &on_frame)
{
    if (offsets_.size() <= stream)
        offsets_.resize(stream + 1, 0);
    size_t &off = offsets_[stream];
    for (;;) {
        const size_t before = off;
        StatusCode err = StatusCode::kOk;
        if (const std::optional<rpc::Frame> f = buffer.Next(&off, &err))
            on_frame(*f);
        else if (err == StatusCode::kOk || off == before)
            return;  // exhausted, or a tail that cannot be read yet
        // Otherwise the frame failed its CRC and Next stepped over it.
    }
}

void
ReplyHarvester::Harvest(const rpc::RpcServerRuntime &runtime,
                        const OnFrame &on_frame)
{
    for (uint32_t w = 0; w < runtime.num_workers(); ++w)
        Harvest(w, runtime.replies(w), on_frame);
}

void
Gates::Require(bool cond, const std::string &what)
{
    if (!cond) {
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
        ok_ = false;
    }
}

void
Gates::RequireExactlyOnce(const Verdict &v, const std::string &who)
{
    Require(v.wrong_responses == 0, who + " served a wrong response");
    Require(v.unknown_responses == 0,
            who + " produced an unattributable response");
    Require(v.lost_calls == 0, who + " lost a call");
    Require(v.duplicate_execs == 0, who + " executed a call twice");
}

int
Gates::Report(const char *label) const
{
    std::printf("%s: %s\n", label, ok_ ? "PASS" : "FAIL");
    return ok_ ? 0 : 1;
}

}  // namespace protoacc::harness
