#include "fleet.h"

#include <cstdio>

#include "storage/container.h"

namespace perfbench {

bool WriteContainer(const GenGraph& g, const std::string& path, bool named) {
  gqd::GraphContainerBuilder builder;
  for (const std::string& label : g.labels) {
    builder.AddLabel(label);
  }
  std::uint32_t max_value = 0;
  for (std::uint32_t v : g.values) {
    max_value = std::max(max_value, v);
  }
  for (std::uint32_t v = 0; v <= max_value; v++) {
    builder.AddDataValue("d" + std::to_string(v));
  }
  for (std::size_t v = 0; v < g.n; v++) {
    builder.AddNamedNode(g.values[v], named ? "v" + std::to_string(v) : "");
  }
  for (const auto& e : g.edges) {
    builder.AddEdge(e.from, e.label, e.to);
  }
  gqd::Status written = builder.WriteToFile(path);
  if (!written.ok()) {
    std::fprintf(stderr, "error: writing %s: %s\n", path.c_str(),
                 written.message().c_str());
  }
  return written.ok();
}

std::int64_t SpanLog::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::AddTree(std::vector<Span> spans) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto offset = static_cast<std::int64_t>(spans_.size());
  for (Span& span : spans) {
    if (span.parent >= 0) {
      span.parent += offset;
    }
    spans_.push_back(span);
  }
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  std::fputs("[\n", out);
  for (std::size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"parent\":%lld,\"request\":%llu}\n",
                 i == 0 ? "" : ",", s.name, s.start_us, s.end_us,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("]\n", out);
  return std::fclose(out) == 0;
}

std::uint64_t LineId(const std::string& line) {
  static constexpr char kPrefix[] = "{\"id\":";
  if (line.compare(0, sizeof(kPrefix) - 1, kPrefix) != 0) {
    return 0;
  }
  return std::strtoull(line.c_str() + sizeof(kPrefix) - 1, nullptr, 10);
}

std::string TimedHandler::HandleLine(const std::string& line,
                                     bool* shutdown) {
  if (!enabled.load(std::memory_order_relaxed)) {
    return inner_->HandleLine(line, shutdown);
  }
  Span span;
  span.name = name_;
  span.request = LineId(line);
  span.start_us = NowUs();
  std::string response = inner_->HandleLine(line, shutdown);
  span.end_us = NowUs();
  log_->Add(span);
  return response;
}

Fleet::~Fleet() { Stop(); }

bool Fleet::Start(const FleetOptions& options) {
  constexpr std::size_t kWorkers = 2;
  constexpr std::size_t kReplication = 2;
  gqd::ServerOptions server_options;
  server_options.max_line_bytes = std::size_t{64} << 20;
  auto wrap = [&](gqd::LineHandler* inner,
                  const char* name) -> gqd::LineHandler* {
    if (options.log == nullptr) {
      return inner;
    }
    wrappers_.push_back(
        std::make_unique<TimedHandler>(inner, name, options.log));
    return wrappers_.back().get();
  };
  auto fail = [](const gqd::Status& status) {
    std::fprintf(stderr, "error: fleet start: %s\n",
                 status.message().c_str());
    return false;
  };
  std::size_t num_services = options.routed ? kWorkers : 1;
  for (std::size_t i = 0; i < num_services; i++) {
    services_.push_back(std::make_unique<gqd::QueryService>());
  }
  if (!options.routed) {
    front_ = std::make_unique<gqd::Server>(
        wrap(services_[0].get(), "service.handle_line"), server_options);
    gqd::Status started = front_->Start(0);
    return started.ok() ? true : fail(started);
  }
  gqd::RouterOptions router_options;
  for (std::size_t i = 0; i < num_services; i++) {
    workers_.push_back(std::make_unique<gqd::Server>(
        wrap(services_[i].get(), "service.handle_line"), server_options));
    gqd::Status started = workers_.back()->Start(0);
    if (!started.ok()) {
      return fail(started);
    }
    router_options.worker_ports.push_back(workers_.back()->port());
  }
  router_options.replication = kReplication;
  router_ = std::make_unique<gqd::Router>(router_options);
  gqd::Status router_started = router_->Start();
  if (!router_started.ok()) {
    return fail(router_started);
  }
  front_ = std::make_unique<gqd::Server>(
      wrap(router_.get(), "router.handle_line"), server_options);
  gqd::Status started = front_->Start(0);
  return started.ok() ? true : fail(started);
}

void Fleet::Stop() {
  if (front_ != nullptr) {
    front_->Stop();
  }
  if (router_ != nullptr) {
    router_->Stop();
  }
  for (auto& worker : workers_) {
    worker->Stop();
  }
  front_.reset();
  router_.reset();
  workers_.clear();
  wrappers_.clear();
  services_.clear();
}

void Fleet::SetTracing(bool on) {
  for (auto& wrapper : wrappers_) {
    wrapper->enabled.store(on, std::memory_order_relaxed);
  }
}

}  // namespace perfbench
