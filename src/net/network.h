// The ARPA-network attachment. The paper proposes replacing every
// special-purpose external I/O mechanism (terminals, cards, printers, tapes)
// with this single mechanism: "Using network technology to provide the only
// path for external I/O to Multics appears feasible."
//
// Connections carry byte-string messages both ways with a latency model; the
// remote end is simulated (traffic generators, examples). Inbound data lands
// in a per-connection InputBuffer (circular or infinite — experiment E5) and
// asserts the attachment's interrupt line.

#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/hw/machine.h"
#include "src/net/buffers.h"

namespace multics {

using ConnId = uint64_t;

class NetworkAttachment {
 public:
  struct Config {
    Cycles packet_latency = 500;
    InterruptLine interrupt_line = 8;
  };

  NetworkAttachment(Machine* machine, Config config);

  // Opens a connection to `remote` with the supplied input buffer.
  Result<ConnId> Open(const std::string& remote, std::unique_ptr<InputBuffer> buffer);
  Status Close(ConnId conn);

  // Local side.
  Status Send(ConnId conn, const std::string& data);
  Result<NetMessage> Receive(ConnId conn);
  Result<const InputBuffer*> BufferOf(ConnId conn) const;

  // Remote side (simulation): data arrives after the latency, is enqueued,
  // and the interrupt line is asserted.
  Status InjectFromRemote(ConnId conn, const std::string& data);

  // Sink for locally-sent data once it "reaches" the remote end.
  void SetRemoteSink(ConnId conn, std::function<void(const std::string&)> sink);

  uint64_t packets_in() const { return packets_in_; }
  uint64_t packets_out() const { return packets_out_; }
  uint64_t total_lost() const;

 private:
  struct Connection {
    std::string remote;
    std::unique_ptr<InputBuffer> buffer;
    std::function<void(const std::string&)> remote_sink;
    uint64_t next_sequence = 0;
  };

  Machine* machine_;
  Config config_;
  std::unordered_map<ConnId, Connection> connections_;
  ConnId next_conn_ = 1;
  uint64_t packets_in_ = 0;
  uint64_t packets_out_ = 0;
  uint64_t lost_on_closed_ = 0;
};

}  // namespace multics

#endif  // SRC_NET_NETWORK_H_
