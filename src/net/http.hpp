// Minimal, dependency-free HTTP/1.1 transport (POSIX sockets, blocking
// I/O) — the listener behind obs::AdminServer and the detection wire
// plane (serve::DetectionEndpoint). Deliberately small: exact-path
// GET/HEAD/POST routing, bounded request parsing (including chunked
// uploads), optional keep-alive, and a graceful stop. Not a general web
// server; it serves trusted operator traffic on a loopback/infra port.
//
// Threading model: one acceptor thread poll()s the listening socket and
// feeds accepted connections to a small fixed pool of handler threads
// (bounded queue). Each handler thread owns one connection at a time and
// runs its request/response loop to completion. stop() is graceful in
// the drain sense: the acceptor stops accepting, queued-but-unserved
// connections are closed, in-flight requests finish and write their
// responses (their read side is shutdown(2) so keep-alive loops exit),
// then the threads are joined. Handlers may be called concurrently from
// several threads — route handlers must be thread-safe.
//
// Parsing limits (all configurable): request line + headers are capped
// at maxHeaderBytes (431 when exceeded), bodies — Content-Length or
// chunked — at maxBodyBytes (413), and malformed requests get a 400.
//
// Connection-close contract, by error class:
//  - transport/parse errors (400 malformed request or chunk framing,
//    413 oversized body, 431 oversized headers) CLOSE the connection:
//    the request stream cannot be resynchronized past them;
//  - application responses — whatever their status (404, 405, 429, 504,
//    handler 500, ...) — honor keep-alive: the request was fully read,
//    so the connection stays usable unless the handler sets
//    closeConnection (or the client sent Connection: close).
//
// Method routing: a path registered via handle() answers GET and HEAD;
// handlePost() registers POST. A request for a known path with the wrong
// method gets 405 with an Allow header listing the path's methods; 404
// is reserved for unknown paths (405-before-404 precedence).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

namespace hsd::net {

/// One parsed request. Header names are lower-cased at parse time;
/// values keep their bytes (leading/trailing whitespace trimmed).
struct HttpRequest {
  std::string method;   ///< e.g. "GET" (upper-case as sent)
  std::string target;   ///< raw request target, e.g. "/tracez?limit=10"
  std::string path;     ///< target up to '?', e.g. "/tracez"
  std::string query;    ///< target after '?', e.g. "limit=10" ("" if none)
  std::string version;  ///< "HTTP/1.1" or "HTTP/1.0"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;     ///< decoded (chunked bodies are de-framed)
  /// Connected client socket for the duration of the handler call, -1
  /// outside one. Long-running handlers may probe it for an early client
  /// disconnect (recv MSG_PEEK|MSG_DONTWAIT == 0) to cancel server-side
  /// work; they must never read or write it.
  int clientFd = -1;

  /// First header with this (lower-case) name, or nullptr.
  const std::string* header(std::string_view lowerName) const;
  /// Value of `key` in the query string ("" when absent; no %-decoding —
  /// endpoints use plain numeric/identifier params).
  std::string queryParam(std::string_view key) const;
};

struct HttpResponse {
  int status = 200;
  std::string contentType = "text/plain; charset=utf-8";
  std::string body;
  bool closeConnection = false;  ///< force Connection: close
  /// Extra response headers (Retry-After, X-Request-Id, ...). The server
  /// owns Content-Type, Content-Length and Connection — do not set those
  /// here.
  std::vector<std::pair<std::string, std::string>> headers;

  static HttpResponse text(int status, std::string body);
  static HttpResponse json(std::string body);
  HttpResponse& withHeader(std::string name, std::string value);
};

/// Canonical reason phrase ("OK", "Not Found", ...; "Unknown" fallback).
const char* statusReason(int status);

struct HttpServerOptions {
  std::uint16_t port = 0;            ///< 0 = ephemeral, read back via port()
  std::string bindAddress = "127.0.0.1";  ///< numeric IPv4
  std::size_t handlerThreads = 2;
  std::size_t maxHeaderBytes = 16 * 1024;
  std::size_t maxBodyBytes = 1 << 20;
  std::size_t maxQueuedConnections = 64;  ///< accepted-but-unserved cap
  bool keepAlive = true;
  /// Per-recv/send timeout; also bounds how long stop() can block on an
  /// idle keep-alive connection that never saw the shutdown(2).
  int ioTimeoutMs = 2000;
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit HttpServer(HttpServerOptions opts = {});
  ~HttpServer();  ///< stop()

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Register an exact-path GET route (HEAD is answered from it with the
  /// body suppressed). Call before start(); handlers run concurrently on
  /// the handler pool and must be thread-safe. A handler that throws
  /// produces a 500 with the exception message.
  void handle(std::string path, Handler handler);

  /// Register an exact-path POST route. Same rules as handle(); the
  /// request body (Content-Length or chunked, capped at maxBodyBytes) is
  /// fully read and decoded before the handler runs.
  void handlePost(std::string path, Handler handler);

  /// Bind, listen, and spawn the acceptor + handler threads. Throws
  /// std::runtime_error on socket/bind/listen failure. Call once.
  void start();

  /// The bound port (the chosen one when options.port was 0); 0 before
  /// start().
  std::uint16_t port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// True once stop() has begun (in-flight handlers may still be
  /// finishing). Handlers probing clientFd for client disconnects must
  /// not treat EOF as a disconnect while draining — stop() shuts the
  /// read side of every active connection down to unblock reads.
  bool draining() const { return stopping_.load(std::memory_order_acquire); }

  /// Registered route paths, in registration order (the "/" index and
  /// 404 bodies list these).
  std::vector<std::string> routes() const;

  /// Graceful stop: stop accepting, close queued connections, let
  /// in-flight requests finish their response, join all threads.
  /// Idempotent.
  void stop();

 private:
  enum class Method { kGet, kPost };

  struct Route {
    Method method;
    std::string path;
    Handler handler;
  };

  void addRoute(Method method, std::string path, Handler handler);
  void acceptLoop();
  void handlerLoop();
  void serveConnection(int fd);
  /// Reads one request from fd into req, carrying leftover bytes across
  /// keep-alive requests in `buf`. Returns true on success; on failure
  /// sets errStatus (0 = clean close / timeout, no response owed).
  bool readRequest(int fd, std::string& buf, HttpRequest& req,
                   int& errStatus);
  /// De-frames a chunked body starting at buf[bodyStart], filling
  /// req.body and erasing the consumed bytes from buf. Returns false with
  /// errStatus set (400 bad framing / 413 over cap) on failure.
  bool readChunkedBody(int fd, std::string& buf, std::size_t bodyStart,
                       HttpRequest& req, int& errStatus);
  void writeResponse(int fd, const HttpResponse& res, bool keepAlive,
                     bool headOnly);
  HttpResponse dispatch(const HttpRequest& req);

  HttpServerOptions opts_;
  int listenFd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::vector<Route> routes_;  ///< registration order

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<int> pending_;             ///< accepted fds awaiting a handler
  std::unordered_set<int> active_;      ///< fds currently being served

  std::thread acceptor_;
  std::vector<std::thread> handlers_;
};

/// Result of one client request. `status` is 0 only on transport failure
/// paths that throw instead, so a returned result always has a parsed
/// status line. Header names are lower-cased.
struct HttpResult {
  int status = 0;
  std::string body;
  std::string contentType;
  std::vector<std::pair<std::string, std::string>> headers;

  bool ok() const { return status >= 200 && status < 300; }
  /// First response header with this (lower-case) name, or nullptr.
  const std::string* header(std::string_view lowerName) const;
};

/// Minimal blocking HTTP/1.1 GET (Connection: close, numeric IPv4 host).
/// The curl-free scrape path of tests and tools_smoke.sh (via
/// tools/hsd_scrape). `extraHeaders` are sent verbatim after
/// Host/Connection. Throws std::runtime_error on connect/socket/parse
/// failure; HTTP-level errors come back as the status code.
HttpResult httpGet(
    const std::string& host, std::uint16_t port, const std::string& target,
    int timeoutMs = 5000,
    const std::vector<std::pair<std::string, std::string>>& extraHeaders = {});

/// Minimal blocking HTTP/1.1 POST (Connection: close). `extraHeaders`
/// are sent verbatim after Host/Content-Type/Content-Length. Same error
/// contract as httpGet.
HttpResult httpPost(
    const std::string& host, std::uint16_t port, const std::string& target,
    const std::string& body,
    const std::string& contentType = "application/octet-stream",
    const std::vector<std::pair<std::string, std::string>>& extraHeaders = {},
    int timeoutMs = 30000);

}  // namespace hsd::net
