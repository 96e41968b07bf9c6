// CRYPTO — primitive costs underlying §2.1/§2.3 credential mechanics.
//
// Explains the FIG1/FIG2 shapes: proxy operations (signing, verification)
// are orders of magnitude cheaper than long-term RSA key generation, which
// is why short-lived proxies with fresh keys are affordable while long-term
// keys are provisioned yearly.
//
// Series reported:
//   BM_Crypto_KeyGen/<type>     — RSA-512/1024/2048/3072 + EC-P256 keygen
//   BM_Crypto_Sign, _Verify     — SHA-256 signatures per key type
//   BM_Crypto_ProxySign         — full proxy-certificate issuance
//   BM_Crypto_ChainVerify/<d>   — chain verification vs delegation depth
//   BM_Credential_FromPem       — decoding a stored proxy credential's PEM
#include "bench_util.hpp"
#include "crypto/kdf.hpp"
#include "crypto/random.hpp"
#include "crypto/symmetric.hpp"
#include "gsi/proxy.hpp"
#include "pki/certificate_builder.hpp"

namespace {

using namespace myproxy;         // NOLINT(google-build-using-namespace)
using namespace myproxy::bench;  // NOLINT(google-build-using-namespace)

crypto::KeySpec spec_for(std::int64_t arg) {
  return arg == 0 ? crypto::KeySpec::ec()
                  : crypto::KeySpec::rsa(static_cast<unsigned>(arg));
}

std::string label_for(std::int64_t arg) {
  return arg == 0 ? "EC-P256" : "RSA-" + std::to_string(arg);
}

void BM_Crypto_KeyGen(benchmark::State& state) {
  const crypto::KeySpec spec = spec_for(state.range(0));
  state.SetLabel(label_for(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::KeyPair::generate(spec));
  }
}
BENCHMARK(BM_Crypto_KeyGen)
    ->Arg(0)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(3072)
    ->Unit(benchmark::kMicrosecond);

void BM_Crypto_Sign(benchmark::State& state) {
  const auto key = crypto::KeyPair::generate(spec_for(state.range(0)));
  state.SetLabel(label_for(state.range(0)));
  const std::string payload(1024, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sign(key, payload));
  }
}
BENCHMARK(BM_Crypto_Sign)
    ->Arg(0)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_Crypto_Verify(benchmark::State& state) {
  const auto key = crypto::KeyPair::generate(spec_for(state.range(0)));
  state.SetLabel(label_for(state.range(0)));
  const std::string payload(1024, 'x');
  const auto signature = crypto::sign(key, payload);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::verify(key, payload, signature));
  }
}
BENCHMARK(BM_Crypto_Verify)
    ->Arg(0)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_Crypto_ProxySign(benchmark::State& state) {
  // Issue one proxy certificate (no key generation — that is measured
  // separately): what the repository pays per delegation.
  quiet_logs();
  VirtualOrganization vo;
  const gsi::Credential user = vo.user("crypto-user");
  const auto proxy_key = crypto::KeyPair::generate(crypto::KeySpec::ec());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pki::CertificateBuilder()
            .subject(user.subject().with_cn(pki::kProxyCn))
            .issuer(user.subject())
            .public_key(proxy_key)
            .lifetime(Seconds(3600))
            .sign(user.key()));
  }
}
BENCHMARK(BM_Crypto_ProxySign)->Unit(benchmark::kMicrosecond);

void BM_Crypto_ChainVerify(benchmark::State& state) {
  // Verification cost vs delegation depth — see bench_delegation_chain for
  // the full sweep; depth 1 and 4 here anchor the crypto table.
  quiet_logs();
  VirtualOrganization vo;
  gsi::Credential current = vo.user("crypto-chain-user");
  for (std::int64_t depth = 0; depth < state.range(0); ++depth) {
    gsi::ProxyOptions options;
    options.lifetime = Seconds(3600 - depth * 60);
    current = gsi::create_proxy(current, options);
  }
  const auto chain = current.full_chain();
  const auto store = vo.trust_store();
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.verify(chain));
  }
}
BENCHMARK(BM_Crypto_ChainVerify)->Arg(1)->Arg(4)->Unit(benchmark::kMicrosecond);

void BM_Crypto_Pbkdf2(benchmark::State& state) {
  // Per-guess cost an attacker pays against a stolen repository record.
  const auto salt = crypto::random_bytes(crypto::kEnvelopeSaltSize);
  const auto iterations = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::pbkdf2(kPhrase, salt, iterations, crypto::kAesKeySize));
  }
}
BENCHMARK(BM_Crypto_Pbkdf2)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);
// Four derives at once, as four workers opening or sealing records do. The
// CPU column is one derive's cost while the others run; next to the
// one-thread row it shows any contention between them.
BENCHMARK(BM_Crypto_Pbkdf2)
    ->Arg(10000)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_Credential_FromPem(benchmark::State& state) {
  // What Repository::open does after the KDF and decrypt: an EC P-256
  // proxy credential (proxy certificate, PKCS#8 key, end-entity
  // certificate) back into OpenSSL objects.
  static const SecureBuffer pem = [] {
    VirtualOrganization vo;
    return gsi::create_proxy(vo.user("from-pem")).to_pem();
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gsi::Credential::from_pem(pem.view()));
  }
}
BENCHMARK(BM_Credential_FromPem)->Unit(benchmark::kMicrosecond);
// Four workers opening records at once; next to the one-thread row the CPU
// column shows any contention between them.
BENCHMARK(BM_Credential_FromPem)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
