// Experiment C3 (paper §3.2): the textual Stethoscope "uses a UDP socket
// interface to connect to MonetDB server" and "can connect to multiple
// MonetDB servers at the same time to receive execution traces from all
// (distributed) sources. Its filter options allow for selective tracing."
//
// Measures datagram transport throughput (in-process channel and real
// loopback UDP), the textual Stethoscope's end-to-end ingest rate with
// 1..8 concurrent servers, with and without filtering, and the cost of
// pushing a wide plan's dot file over loopback UDP (paper §4.2).

#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>

#include "bench_util.h"
#include "dot/writer.h"
#include "net/channel.h"
#include "net/trace_stream.h"
#include "net/udp.h"
#include "scope/textual.h"

namespace {

using namespace stetho;

std::string SampleLine() {
  profiler::TraceEvent e;
  e.event = 12;
  e.time_us = 123456;
  e.pc = 7;
  e.thread = 2;
  e.state = profiler::EventState::kDone;
  e.usec = 1500;
  e.rss_bytes = 1 << 20;
  e.stmt = "X_9:bat[:oid] := algebra.thetaselect(X_2,X_8,1,\"==\");";
  return profiler::FormatTraceLine(e);
}

void BM_ChannelRoundTrip(benchmark::State& state) {
  auto [sender, receiver] = net::Channel::CreatePair();
  std::string line = SampleLine();
  std::string payload;
  for (auto _ : state) {
    (void)sender->Send(line);
    auto got = receiver->Receive(&payload, 100);
    if (!got.ok() || !got.value()) {
      state.SkipWithError("channel receive failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(line.size()));
}
BENCHMARK(BM_ChannelRoundTrip);

void BM_UdpLoopbackRoundTrip(benchmark::State& state) {
  auto receiver = net::UdpReceiver::Bind(0);
  if (!receiver.ok()) {
    state.SkipWithError("bind failed");
    return;
  }
  auto sender = net::UdpSender::Connect(receiver.value()->port());
  if (!sender.ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  std::string line = SampleLine();
  std::string payload;
  for (auto _ : state) {
    (void)sender.value()->Send(line);
    auto got = receiver.value()->Receive(&payload, 1000);
    if (!got.ok() || !got.value()) {
      state.SkipWithError("udp receive failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(line.size()));
}
BENCHMARK(BM_UdpLoopbackRoundTrip);

/// End-to-end ingest: N producer threads stream trace lines into one
/// textual Stethoscope over in-process channels.
void BM_TextualIngestMultiServer(benchmark::State& state) {
  const int servers = static_cast<int>(state.range(0));
  const bool filtered = state.range(1) != 0;
  const int kEventsPerServer = 2000;
  std::string line = SampleLine();

  for (auto _ : state) {
    scope::TextualOptions options;
    options.buffer_capacity = 1 << 16;
    if (filtered) {
      options.filter.OnlyState(profiler::EventState::kStart);  // drops all
    }
    scope::TextualStethoscope textual(options);
    std::vector<std::unique_ptr<net::DatagramSender>> senders;
    for (int s = 0; s < servers; ++s) {
      auto [sender, receiver] = net::Channel::CreatePair(1 << 18);
      (void)textual.AddServer("srv" + std::to_string(s), std::move(receiver));
      senders.push_back(std::move(sender));
    }
    std::vector<std::thread> producers;
    for (int s = 0; s < servers; ++s) {
      producers.emplace_back([&, s] {
        for (int i = 0; i < kEventsPerServer; ++i) {
          (void)senders[static_cast<size_t>(s)]->Send(line);
        }
      });
    }
    for (auto& t : producers) t.join();
    int64_t expected = static_cast<int64_t>(servers) * kEventsPerServer;
    while (textual.events_received() < expected) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    textual.Stop();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(servers) * kEventsPerServer);
  state.SetLabel(filtered ? "filter drops all" : "no filter");
}
BENCHMARK(BM_TextualIngestMultiServer)
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({4, 1})
    ->Unit(benchmark::kMillisecond);

/// Forwards every datagram to `inner` and counts them.
class CountingSender : public net::DatagramSender {
 public:
  explicit CountingSender(net::DatagramSender* inner) : inner_(inner) {}
  Status Send(const std::string& payload) override {
    ++datagrams;
    return inner_->Send(payload);
  }
  int64_t datagrams = 0;

 private:
  net::DatagramSender* inner_;
};

/// The width-128 q1 plan's dot file (q1 at mitosis 128, about 4,000 lines
/// and 128 KB) pushed over loopback UDP into a textual Stethoscope, as the
/// server does before every monitored query. One iteration sends the dot
/// file and one trace line behind it, and ends when the listener has
/// ingested that line, so the dot's lines have all been processed. Counters:
/// datagrams per dot file, iterations whose marker line was lost (a lost
/// datagram), and whether the last dot arrived byte for byte.
void BM_WideDotOverUdp(benchmark::State& state) {
  server::MserverOptions server_options;
  server_options.mitosis_pieces = 128;
  auto server = bench::MakeServer(server_options, 0.002);
  auto plan = server->Explain(tpch::GetQuery("q1").value().sql);
  if (!plan.ok()) {
    state.SkipWithError("explain failed");
    return;
  }
  dot::DotWriterOptions dot_options;
  dot_options.graph_name = plan.value().function_name();
  const std::string dot = dot::ProgramToDot(plan.value(), dot_options);

  auto udp_receiver = net::UdpReceiver::Bind(0);
  if (!udp_receiver.ok()) {
    state.SkipWithError("bind failed");
    return;
  }
  auto udp_sender = net::UdpSender::Connect(udp_receiver.value()->port());
  if (!udp_sender.ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  scope::TextualStethoscope textual(scope::TextualOptions{});
  (void)textual.AddServer("udp", std::move(udp_receiver).value());
  CountingSender wire(udp_sender.value().get());
  const std::string marker = SampleLine();

  int64_t lost = 0;
  for (auto _ : state) {
    const int64_t before = textual.events_received();
    (void)net::SendDotFile(&wire, "q1", dot);
    (void)wire.Send(marker);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    while (textual.events_received() == before) {
      if (std::chrono::steady_clock::now() > give_up) {
        ++lost;
        break;
      }
      std::this_thread::yield();
    }
  }
  auto received = textual.DotFor("udp/q1");
  textual.Stop();
  const double iterations = static_cast<double>(state.iterations());
  // The marker is one datagram per iteration; the rest carried the dot.
  state.counters["datagrams_per_dot"] =
      static_cast<double>(wire.datagrams) / iterations - 1;
  state.counters["lost_markers"] = static_cast<double>(lost);
  state.counters["dot_intact"] =
      received.ok() && received.value() == dot ? 1 : 0;
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(dot.size()));
}
BENCHMARK(BM_WideDotOverUdp)->Unit(benchmark::kMicrosecond);

/// Live server -> UDP -> textual Stethoscope, while the query runs.
void BM_LiveQueryOverUdp(benchmark::State& state) {
  auto udp_receiver = net::UdpReceiver::Bind(0);
  if (!udp_receiver.ok()) {
    state.SkipWithError("bind failed");
    return;
  }
  uint16_t port = udp_receiver.value()->port();

  scope::TextualOptions options;
  scope::TextualStethoscope textual(options);
  (void)textual.AddServer("udp", std::move(udp_receiver).value());

  server::MserverOptions server_options;
  server_options.dop = 2;
  auto server = bench::MakeServer(server_options, 0.001);
  auto udp_sender = net::UdpSender::Connect(port);
  if (!udp_sender.ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  server->AttachStream(
      std::shared_ptr<net::DatagramSender>(std::move(udp_sender).value()));

  const std::string sql = tpch::GetQuery("q6").value().sql;
  for (auto _ : state) {
    auto outcome = server->ExecuteSql(sql);
    if (!outcome.ok()) {
      state.SkipWithError("query failed");
      return;
    }
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["events_seen"] =
      static_cast<double>(textual.events_received());
  textual.Stop();
}
BENCHMARK(BM_LiveQueryOverUdp)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
