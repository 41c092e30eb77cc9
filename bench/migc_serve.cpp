/**
 * @file
 * migc_serve: long-running warm-cache query service.
 *
 * Maps the sweep cache as an immutable v4 snapshot (or parses it,
 * when the file holds uncompacted appends) and answers
 * newline-delimited queries (exact `get` and glob `match`, see
 * docs/SERVE.md and src/serve/serve_protocol.hh) without simulating
 * anything that is already cached. Cold points enqueue a
 * simulate-on-miss job; when it finishes, the start image plus a
 * delta image of the fills is published and the next query is a
 * warm hit.
 *
 * Two front ends over the same ServeService:
 *
 *  - stdin (default): requests on stdin, responses on stdout, one
 *    client. EOF drains pending misses, flushes the cache, exits.
 *    `migc_serve <<< 'match default * *'` is a complete session.
 *
 *  - --socket SPEC: a stream socket (unix:<path>, tcp:<host>:<port>,
 *    or a bare AF_UNIX path - serve/transport.hh), one thread per
 *    connection, any number of concurrent clients. Runs until
 *    killed.
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep_engine.hh"
#include "serve/serve_service.hh"
#include "serve/transport.hh"
#include "sim/logging.hh"

namespace
{

using namespace migc;

int
usage(const char *argv0, int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: %s [--cache PATH] [--socket SPEC] [--no-simulate]\n"
        "\n"
        "Serve sweep-cache results over a line protocol (docs/"
        "SERVE.md).\n"
        "\n"
        "  --cache PATH    sweep cache file to serve (default: "
        "MIGC_SWEEP_CACHE\n"
        "                  or mi_sweep_cache.csv)\n"
        "  --socket SPEC   listen on unix:<path>, tcp:<host>:<port>, "
        "or a bare\n"
        "                  AF_UNIX path instead of stdin/stdout\n"
        "  --no-simulate   answer cold points with '# miss' instead "
        "of simulating\n",
        argv0);
    return code;
}

/** One connection: read request lines, write responses. */
void
serveStream(ServeService &service, Stream &stream)
{
    std::string buf;
    char chunk[4096];
    for (;;) {
        ssize_t n = stream.read(chunk, sizeof(chunk));
        if (n <= 0)
            break;
        buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t nl;
        while ((nl = buf.find('\n')) != std::string::npos) {
            std::string reply =
                service.handleLine(buf.substr(0, nl));
            buf.erase(0, nl + 1);
            if (!reply.empty() && !stream.writeAll(reply))
                return;
        }
    }
}

int
serveSocket(ServeService &service, const std::string &spec)
{
    Listener listener;
    listener.bind(parseEndpoint(spec));
    inform("serving on %s (one thread per connection; kill to stop)",
           listener.bound().spec().c_str());
    for (;;) {
        std::unique_ptr<Stream> conn = listener.accept();
        if (conn == nullptr)
            return 0; // stopped (or a non-transient accept error)
        std::shared_ptr<Stream> stream(std::move(conn));
        std::thread([&service, stream] {
            serveStream(service, *stream);
        }).detach();
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string cache = sweepCachePathFromEnv();
    std::string socket_path;
    ServeService::Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            return usage(argv[0], 0);
        if (arg == "--no-simulate") {
            opts.simulate = false;
        } else if (arg == "--cache" && i + 1 < argc) {
            cache = argv[++i];
        } else if (arg == "--socket" && i + 1 < argc) {
            socket_path = argv[++i];
        } else {
            std::fprintf(stderr, "unknown argument: %s\n",
                         arg.c_str());
            return usage(argv[0], 2);
        }
    }

    // stdout is the protocol stream; keep status chatter (cache
    // load, per-simulation informs) off it in both modes.
    setInformStream(stderr);

    SweepEngine engine(cache);
    opts.cachePath = cache;
    ServeService service(engine, opts);
    // Report through the service, not engine.snapshot(): on an
    // mmap'd start the engine has not parsed the cache, and asking
    // it for a snapshot here would force exactly the parse the
    // zero-copy path exists to skip.
    inform("loaded %zu row%s from %s (%s, %.1f ms)",
           service.snapshotRows(),
           service.snapshotRows() == 1 ? "" : "s",
           cache.empty() ? "(cache disabled)" : cache.c_str(),
           service.snapshotFormat().c_str(), service.loadMs());

    if (!socket_path.empty())
        return serveSocket(service, socket_path);

    std::string line;
    while (std::getline(std::cin, line)) {
        std::string reply = service.handleLine(line);
        if (!reply.empty()) {
            std::fwrite(reply.data(), 1, reply.size(), stdout);
            std::fflush(stdout);
        }
    }
    // EOF: let enqueued misses finish and persist their rows.
    service.drain();
    engine.flush();
    return 0;
}
