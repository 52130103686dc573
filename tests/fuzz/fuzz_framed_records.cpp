// libFuzzer harness for the journal and snapshot readers built on the
// framed-record codec (sim/io/framed.hpp): every input goes through the
// TMSJ sweep-journal parse, the TMDJ checkpoint probe and the TMST status
// decode.  All three read untrusted bytes from disk and promise a total
// contract -- torn frames, lying lengths and hostile counts yield a status,
// never a crash, throw, hang or allocation blow-up.
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "core/stream_distiller.hpp"
#include "scenarios/supervisor.hpp"
#include "sim/io/framed.hpp"
#include "sim/status/status.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  // Gate the TMSJ parse on the input's own fingerprint so mutations reach
  // the frames behind the header.
  std::uint32_t fingerprint = 0;
  if (size >= tracemod::sim::io::kJournalHeaderBytes) {
    std::memcpy(&fingerprint, data + 6, sizeof(fingerprint));
  }
  (void)tracemod::scenarios::parse_sweep_journal(bytes, fingerprint);
  (void)tracemod::core::probe_checkpoint_journal(bytes.data(), size);
  (void)tracemod::sim::status::decode_status(data, size);
  return 0;
}
