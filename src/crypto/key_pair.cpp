#include "crypto/key_pair.hpp"

#include <openssl/decoder.h>
#include <openssl/ec.h>
#include <openssl/err.h>
#include <openssl/evp.h>
#include <openssl/pem.h>
#include <openssl/rsa.h>

#include <cstring>

#include "crypto/openssl_util.hpp"

namespace myproxy::crypto {

namespace {

EVP_PKEY* require(const std::shared_ptr<EVP_PKEY>& pkey) {
  if (pkey == nullptr) throw CryptoError("operation on empty KeyPair");
  return pkey.get();
}

std::shared_ptr<EVP_PKEY> wrap(EVP_PKEY* pkey) {
  return std::shared_ptr<EVP_PKEY>(pkey,
                                   [](EVP_PKEY* p) { EVP_PKEY_free(p); });
}

}  // namespace

void KeyPair::PkeyDeleter::operator()(EVP_PKEY* p) const noexcept {
  EVP_PKEY_free(p);
}

KeyPair KeyPair::generate(const KeySpec& spec) {
  EVP_PKEY* raw = nullptr;
  if (spec.type == KeyType::kRsa) {
    if (spec.rsa_bits < 512 || spec.rsa_bits > 16384) {
      throw CryptoError("RSA key size out of range");
    }
    EvpPkeyCtxPtr ctx(check_ptr(EVP_PKEY_CTX_new_id(EVP_PKEY_RSA, nullptr),
                                "EVP_PKEY_CTX_new_id(RSA)"));
    check(EVP_PKEY_keygen_init(ctx.get()), "EVP_PKEY_keygen_init");
    check(EVP_PKEY_CTX_set_rsa_keygen_bits(ctx.get(),
                                           static_cast<int>(spec.rsa_bits)),
          "set_rsa_keygen_bits");
    check(EVP_PKEY_keygen(ctx.get(), &raw), "EVP_PKEY_keygen(RSA)");
  } else {
    EvpPkeyCtxPtr ctx(check_ptr(EVP_PKEY_CTX_new_id(EVP_PKEY_EC, nullptr),
                                "EVP_PKEY_CTX_new_id(EC)"));
    check(EVP_PKEY_keygen_init(ctx.get()), "EVP_PKEY_keygen_init");
    check(EVP_PKEY_CTX_set_ec_paramgen_curve_nid(ctx.get(),
                                                 NID_X9_62_prime256v1),
          "set_ec_paramgen_curve_nid");
    check(EVP_PKEY_keygen(ctx.get(), &raw), "EVP_PKEY_keygen(EC)");
  }
  KeyPair out;
  out.pkey_ = wrap(raw);
  out.has_private_ = true;
  return out;
}

namespace {

// OpenSSL's pem_password_cb; `u` carries the pass phrase string_view.
int pass_phrase_cb(char* buf, int size, int /*rwflag*/, void* u) {
  const auto* pass = static_cast<const std::string_view*>(u);
  if (pass->empty()) return -1;
  const int n = std::min(size, static_cast<int>(pass->size()));
  std::memcpy(buf, pass->data(), static_cast<std::size_t>(n));
  return n;
}

// Installed between calls, so the reused decoder never holds a pointer to
// a pass phrase that has gone out of scope.
int no_pass_phrase_cb(char* /*buf*/, int /*size*/, int /*rwflag*/,
                      void* /*u*/) {
  return -1;
}

// OpenSSL 3 builds a decoder chain for every PEM_read_bio_PrivateKey, under
// library-wide locks. Each thread builds its decoder once and reuses it; a
// decoded key lands in `slot_` and is moved out before decode() returns.
class KeyDecoder {
 public:
  KeyDecoder()
      : ctx_(check_ptr(OSSL_DECODER_CTX_new_for_pkey(
                           &slot_, "PEM", nullptr, nullptr, EVP_PKEY_KEYPAIR,
                           nullptr, nullptr),
                       "OSSL_DECODER_CTX_new_for_pkey")) {}
  KeyDecoder(const KeyDecoder&) = delete;
  KeyDecoder& operator=(const KeyDecoder&) = delete;
  ~KeyDecoder() {
    OSSL_DECODER_CTX_free(ctx_);
    EVP_PKEY_free(slot_);
  }

  // The first private key in `pem`, walking past blocks that are not one
  // (as OpenSSL's own PEM key reader does). Throws CryptoError.
  EvpPkeyPtr decode(std::string_view pem, std::string_view pass_phrase) {
    BioPtr bio = memory_bio(pem);
    check(OSSL_DECODER_CTX_set_pem_password_cb(
              ctx_, pass_phrase_cb,
              const_cast<void*>(static_cast<const void*>(&pass_phrase))),
          "OSSL_DECODER_CTX_set_pem_password_cb");
    long pos = BIO_tell(bio.get());  // NOLINT(google-runtime-int)
    ERR_set_mark();
    while (OSSL_DECODER_from_bio(ctx_, bio.get()) != 1 || slot_ == nullptr) {
      const long next = BIO_tell(bio.get());  // NOLINT(google-runtime-int)
      if (BIO_eof(bio.get()) != 0 || next <= pos) {
        ERR_clear_last_mark();
        forget();
        throw_openssl("decode private key PEM");
      }
      pos = next;
      ERR_pop_to_mark();
      ERR_set_mark();
    }
    ERR_pop_to_mark();
    EvpPkeyPtr key(slot_);
    slot_ = nullptr;
    forget();
    return key;
  }

 private:
  void forget() noexcept {
    EVP_PKEY_free(slot_);
    slot_ = nullptr;
    (void)OSSL_DECODER_CTX_set_pem_password_cb(ctx_, no_pass_phrase_cb,
                                               nullptr);
  }

  EVP_PKEY* slot_ = nullptr;
  OSSL_DECODER_CTX* ctx_;
};

}  // namespace

KeyPair KeyPair::from_private_pem(std::string_view pem,
                                  std::string_view pass_phrase) {
  thread_local KeyDecoder decoder;
  KeyPair out;
  out.pkey_ = wrap(decoder.decode(pem, pass_phrase).release());
  out.has_private_ = true;
  return out;
}

KeyPair KeyPair::from_public_pem(std::string_view pem) {
  BioPtr bio = memory_bio(pem);
  EVP_PKEY* raw = PEM_read_bio_PUBKEY(bio.get(), nullptr, nullptr, nullptr);
  if (raw == nullptr) throw_openssl("PEM_read_bio_PUBKEY");
  KeyPair out;
  out.pkey_ = wrap(raw);
  out.has_private_ = false;
  return out;
}

SecureBuffer KeyPair::private_pem() const {
  if (!has_private_) throw CryptoError("KeyPair holds no private key");
  BioPtr bio = memory_bio();
  check(PEM_write_bio_PKCS8PrivateKey(bio.get(), require(pkey_), nullptr,
                                      nullptr, 0, nullptr, nullptr),
        "PEM_write_bio_PKCS8PrivateKey");
  const std::string pem = bio_to_string(bio.get());
  return SecureBuffer(std::string_view(pem));
}

std::string KeyPair::private_pem_encrypted(std::string_view pass_phrase) const {
  if (!has_private_) throw CryptoError("KeyPair holds no private key");
  if (pass_phrase.empty()) {
    throw CryptoError("refusing to encrypt a key with an empty pass phrase");
  }
  BioPtr bio = memory_bio();
  check(PEM_write_bio_PKCS8PrivateKey(
            bio.get(), require(pkey_), EVP_aes_256_cbc(),
            pass_phrase.data(), static_cast<int>(pass_phrase.size()), nullptr,
            nullptr),
        "PEM_write_bio_PKCS8PrivateKey(encrypted)");
  return bio_to_string(bio.get());
}

std::string KeyPair::public_pem() const {
  BioPtr bio = memory_bio();
  check(PEM_write_bio_PUBKEY(bio.get(), require(pkey_)),
        "PEM_write_bio_PUBKEY");
  return bio_to_string(bio.get());
}

KeyType KeyPair::type() const {
  const int id = EVP_PKEY_base_id(require(pkey_));
  if (id == EVP_PKEY_RSA) return KeyType::kRsa;
  if (id == EVP_PKEY_EC) return KeyType::kEc;
  throw CryptoError("unsupported key type");
}

unsigned KeyPair::bits() const {
  return static_cast<unsigned>(EVP_PKEY_bits(require(pkey_)));
}

bool KeyPair::same_public_key(const KeyPair& other) const {
  if (pkey_ == nullptr || other.pkey_ == nullptr) return false;
#if OPENSSL_VERSION_NUMBER >= 0x30000000L
  return EVP_PKEY_eq(pkey_.get(), other.pkey_.get()) == 1;
#else
  return EVP_PKEY_cmp(pkey_.get(), other.pkey_.get()) == 1;
#endif
}

KeyPair KeyPair::adopt(EVP_PKEY* pkey, bool has_private) {
  KeyPair out;
  out.pkey_ = wrap(check_ptr(pkey, "KeyPair::adopt(null)"));
  out.has_private_ = has_private;
  return out;
}

std::vector<std::uint8_t> sign(const KeyPair& key, std::string_view data) {
  if (!key.has_private()) throw CryptoError("sign: no private key");
  EvpMdCtxPtr ctx(check_ptr(EVP_MD_CTX_new(), "EVP_MD_CTX_new"));
  check(EVP_DigestSignInit(ctx.get(), nullptr, EVP_sha256(), nullptr,
                           key.native()),
        "EVP_DigestSignInit");
  std::size_t sig_len = 0;
  check(EVP_DigestSign(ctx.get(), nullptr, &sig_len,
                       reinterpret_cast<const unsigned char*>(data.data()),
                       data.size()),
        "EVP_DigestSign(size)");
  std::vector<std::uint8_t> sig(sig_len);
  check(EVP_DigestSign(ctx.get(), sig.data(), &sig_len,
                       reinterpret_cast<const unsigned char*>(data.data()),
                       data.size()),
        "EVP_DigestSign");
  sig.resize(sig_len);
  return sig;
}

bool verify(const KeyPair& key, std::string_view data,
            std::span<const std::uint8_t> signature) {
  if (!key.valid()) throw CryptoError("verify: empty key");
  EvpMdCtxPtr ctx(check_ptr(EVP_MD_CTX_new(), "EVP_MD_CTX_new"));
  check(EVP_DigestVerifyInit(ctx.get(), nullptr, EVP_sha256(), nullptr,
                             key.native()),
        "EVP_DigestVerifyInit");
  const int rc = EVP_DigestVerify(
      ctx.get(), signature.data(), signature.size(),
      reinterpret_cast<const unsigned char*>(data.data()), data.size());
  if (rc == 1) return true;
  // rc == 0 means signature mismatch; anything else is an operational error.
  (void)drain_error_queue();
  if (rc == 0 || rc == -1) return false;
  throw CryptoError("EVP_DigestVerify failed");
}

}  // namespace myproxy::crypto
