#include "crypto/bignum.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "observability/metrics.h"

namespace provdb::crypto {

namespace {

constexpr uint64_t kLimbBase = 1ull << 32;

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// Count of leading zero bits in a non-zero 32-bit limb.
int CountLeadingZeros32(uint32_t x) {
  int n = 0;
  if ((x & 0xFFFF0000u) == 0) {
    n += 16;
    x <<= 16;
  }
  if ((x & 0xFF000000u) == 0) {
    n += 8;
    x <<= 8;
  }
  if ((x & 0xF0000000u) == 0) {
    n += 4;
    x <<= 4;
  }
  if ((x & 0xC0000000u) == 0) {
    n += 2;
    x <<= 2;
  }
  if ((x & 0x80000000u) == 0) {
    n += 1;
  }
  return n;
}

}  // namespace

void BigUInt::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) {
    limbs_.pop_back();
  }
}

BigUInt::BigUInt(uint64_t v) {
  if (v != 0) {
    limbs_.push_back(static_cast<uint32_t>(v));
    uint32_t hi = static_cast<uint32_t>(v >> 32);
    if (hi != 0) {
      limbs_.push_back(hi);
    }
  }
}

BigUInt BigUInt::FromBytesBigEndian(ByteView bytes) {
  BigUInt out;
  out.limbs_.assign((bytes.size() + 3) / 4, 0);
  for (size_t i = 0; i < bytes.size(); ++i) {
    // Byte i from the end belongs to limb i/4, shifted by 8*(i%4).
    size_t from_end = bytes.size() - 1 - i;
    out.limbs_[i / 4] |= static_cast<uint32_t>(bytes[from_end]) << (8 * (i % 4));
  }
  out.Normalize();
  return out;
}

Result<BigUInt> BigUInt::FromHexString(std::string_view hex) {
  if (hex.empty()) {
    return Status::InvalidArgument("empty hex string");
  }
  BigUInt out;
  for (char c : hex) {
    int nib = HexNibble(c);
    if (nib < 0) {
      return Status::InvalidArgument("non-hex character");
    }
    out = out.ShiftLeft(4);
    if (nib != 0) {
      out = Add(out, BigUInt(static_cast<uint64_t>(nib)));
    }
  }
  return out;
}

Result<BigUInt> BigUInt::FromDecimalString(std::string_view dec) {
  if (dec.empty()) {
    return Status::InvalidArgument("empty decimal string");
  }
  BigUInt out;
  const BigUInt ten(10);
  for (char c : dec) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("non-decimal character");
    }
    out = Mul(out, ten);
    out = Add(out, BigUInt(static_cast<uint64_t>(c - '0')));
  }
  return out;
}

Bytes BigUInt::ToBytesBigEndian() const {
  if (limbs_.empty()) {
    return Bytes{0};
  }
  Bytes out;
  size_t total_bytes = (BitLength() + 7) / 8;
  out.resize(total_bytes);
  for (size_t i = 0; i < total_bytes; ++i) {
    // Byte i from the end of the output.
    uint32_t limb = limbs_[i / 4];
    out[total_bytes - 1 - i] = static_cast<uint8_t>(limb >> (8 * (i % 4)));
  }
  return out;
}

Result<Bytes> BigUInt::ToBytesBigEndianPadded(size_t width) const {
  Bytes minimal = ToBytesBigEndian();
  if (IsZero()) {
    minimal.clear();
  }
  if (minimal.size() > width) {
    return Status::OutOfRange("value does not fit in requested width");
  }
  Bytes out(width - minimal.size(), 0);
  AppendBytes(&out, minimal);
  return out;
}

std::string BigUInt::ToHexString() const {
  if (limbs_.empty()) {
    return "0";
  }
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  bool leading = true;
  for (size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      int nib = (limbs_[i] >> shift) & 0xF;
      if (leading && nib == 0) continue;
      leading = false;
      out.push_back(kDigits[nib]);
    }
  }
  return out.empty() ? "0" : out;
}

std::string BigUInt::ToDecimalString() const {
  if (limbs_.empty()) {
    return "0";
  }
  // Repeatedly divide by 10^9 and emit 9-digit groups.
  std::vector<uint32_t> work = limbs_;
  std::string out;
  while (!work.empty()) {
    uint64_t rem = 0;
    for (size_t i = work.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | work[i];
      work[i] = static_cast<uint32_t>(cur / 1000000000ull);
      rem = cur % 1000000000ull;
    }
    while (!work.empty() && work.back() == 0) {
      work.pop_back();
    }
    std::string group = std::to_string(rem);
    if (!work.empty()) {
      group = std::string(9 - group.size(), '0') + group;
    }
    out = group + out;
  }
  return out;
}

size_t BigUInt::BitLength() const {
  if (limbs_.empty()) {
    return 0;
  }
  return limbs_.size() * 32 - CountLeadingZeros32(limbs_.back());
}

bool BigUInt::GetBit(size_t i) const {
  size_t limb = i / 32;
  if (limb >= limbs_.size()) {
    return false;
  }
  return (limbs_[limb] >> (i % 32)) & 1;
}

uint64_t BigUInt::ToUint64() const {
  uint64_t v = 0;
  if (!limbs_.empty()) v = limbs_[0];
  if (limbs_.size() > 1) v |= static_cast<uint64_t>(limbs_[1]) << 32;
  return v;
}

int BigUInt::Compare(const BigUInt& a, const BigUInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) {
      return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigUInt BigUInt::Add(const BigUInt& a, const BigUInt& b) {
  BigUInt out;
  size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t sum = carry;
    if (i < a.limbs_.size()) sum += a.limbs_[i];
    if (i < b.limbs_.size()) sum += b.limbs_[i];
    out.limbs_[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  out.limbs_[n] = static_cast<uint32_t>(carry);
  out.Normalize();
  return out;
}

BigUInt BigUInt::Sub(const BigUInt& a, const BigUInt& b) {
  // Enforced in all build types, not just under NDEBUG-off: a silent
  // two's-complement-style wrap would flow a garbage limb vector into
  // RSA/CRT arithmetic (see header). Call-site audit as of this writing:
  //   - rsa.cc key generation: Sub(n, 1), Sub(n, 3), Sub(p, 1), Sub(q, 1)
  //     on primes >= 3 by construction;
  //   - signer.cc RsaSigner::SignDigest CRT: Sub(s1, s2) behind an
  //     explicit Compare, and Sub(s1 + p, s2_mod_p) where s1 + p >= p >
  //     s2_mod_p;
  //   - ModInverse below: magnitude subtraction behind an explicit
  //     Compare, and Sub(m, reduced) with reduced = old_t mod m < m.
  // MontgomeryContext does not call Sub: its conditional final
  // subtraction runs on flat limbs inside MontMulIntoL, likewise behind
  // an explicit comparison.
  if (Compare(a, b) < 0) {
    std::fprintf(stderr,
                 "BigUInt::Sub precondition violated: a < b "
                 "(a=%zu bits, b=%zu bits); aborting\n",
                 a.BitLength(), b.BitLength());
    std::abort();
  }
  BigUInt out;
  out.limbs_.resize(a.limbs_.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) {
      diff -= b.limbs_[i];
    }
    if (diff < 0) {
      diff += static_cast<int64_t>(kLimbBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(diff);
  }
  out.Normalize();
  return out;
}

BigUInt BigUInt::Mul(const BigUInt& a, const BigUInt& b) {
  if (a.IsZero() || b.IsZero()) {
    return BigUInt();
  }
  // Schoolbook: row i adds a[i] * b into out[i ..], and its carry lands
  // in out[i + bn], which no earlier row has written.
  const size_t bn = b.limbs_.size();
  BigUInt out;
  out.limbs_.assign(a.limbs_.size() + bn, 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    const uint64_t ai = a.limbs_[i];
    uint64_t carry = 0;
    for (size_t j = 0; j < bn; ++j) {
      uint64_t cur = out.limbs_[i + j] + ai * b.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    out.limbs_[i + bn] = static_cast<uint32_t>(carry);
  }
  out.Normalize();
  return out;
}

BigUInt BigUInt::ShiftLeft(size_t bits) const {
  if (IsZero() || bits == 0) {
    BigUInt out = *this;
    return out;
  }
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  BigUInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t v = static_cast<uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  out.Normalize();
  return out;
}

BigUInt BigUInt::ShiftRight(size_t bits) const {
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) {
    return BigUInt();
  }
  BigUInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<uint32_t>(v);
  }
  out.Normalize();
  return out;
}

Result<DivModResult> BigUInt::DivMod(const BigUInt& dividend,
                                              const BigUInt& divisor) {
  if (divisor.IsZero()) {
    return Status::InvalidArgument("division by zero");
  }
  if (Compare(dividend, divisor) < 0) {
    return DivModResult{BigUInt(), dividend};
  }
  // Single-limb fast path.
  if (divisor.limbs_.size() == 1) {
    uint64_t d = divisor.limbs_[0];
    BigUInt q;
    q.limbs_.assign(dividend.limbs_.size(), 0);
    uint64_t rem = 0;
    for (size_t i = dividend.limbs_.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | dividend.limbs_[i];
      q.limbs_[i] = static_cast<uint32_t>(cur / d);
      rem = cur % d;
    }
    q.Normalize();
    return DivModResult{std::move(q), BigUInt(rem)};
  }

  // Knuth TAOCP vol. 2, Algorithm D.
  const size_t n = divisor.limbs_.size();
  const size_t m = dividend.limbs_.size() - n;
  const int shift = CountLeadingZeros32(divisor.limbs_.back());

  // Normalized copies: v has its top bit set; u gains one extra limb.
  BigUInt v_big = divisor.ShiftLeft(shift);
  BigUInt u_big = dividend.ShiftLeft(shift);
  std::vector<uint32_t> v = v_big.limbs_;
  std::vector<uint32_t> u = u_big.limbs_;
  u.resize(dividend.limbs_.size() + 1, 0);
  v.resize(n, 0);

  BigUInt q;
  q.limbs_.assign(m + 1, 0);

  for (size_t j = m + 1; j-- > 0;) {
    // Estimate q_hat from the top two limbs of the current remainder.
    uint64_t numerator =
        (static_cast<uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    uint64_t q_hat = numerator / v[n - 1];
    uint64_t r_hat = numerator % v[n - 1];

    while (q_hat >= kLimbBase ||
           q_hat * v[n - 2] > ((r_hat << 32) | u[j + n - 2])) {
      --q_hat;
      r_hat += v[n - 1];
      if (r_hat >= kLimbBase) {
        break;
      }
    }

    // Multiply-and-subtract: u[j..j+n] -= q_hat * v.
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t product = q_hat * v[i] + carry;
      carry = product >> 32;
      int64_t diff = static_cast<int64_t>(u[j + i]) -
                     static_cast<int64_t>(product & 0xFFFFFFFFull) - borrow;
      if (diff < 0) {
        diff += static_cast<int64_t>(kLimbBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[j + i] = static_cast<uint32_t>(diff);
    }
    int64_t diff = static_cast<int64_t>(u[j + n]) -
                   static_cast<int64_t>(carry) - borrow;
    bool negative = diff < 0;
    if (negative) {
      diff += static_cast<int64_t>(kLimbBase);
    }
    u[j + n] = static_cast<uint32_t>(diff);

    if (negative) {
      // q_hat was one too large; add the divisor back.
      --q_hat;
      uint64_t add_carry = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t sum = static_cast<uint64_t>(u[j + i]) + v[i] + add_carry;
        u[j + i] = static_cast<uint32_t>(sum);
        add_carry = sum >> 32;
      }
      u[j + n] = static_cast<uint32_t>(u[j + n] + add_carry);
    }

    q.limbs_[j] = static_cast<uint32_t>(q_hat);
  }

  q.Normalize();
  BigUInt r;
  r.limbs_.assign(u.begin(), u.begin() + n);
  r.Normalize();
  r = r.ShiftRight(shift);
  return DivModResult{std::move(q), std::move(r)};
}

Result<BigUInt> BigUInt::Mod(const BigUInt& a, const BigUInt& m) {
  PROVDB_ASSIGN_OR_RETURN(DivModResult dm, DivMod(a, m));
  return dm.remainder;
}

Result<BigUInt> BigUInt::ModExp(const BigUInt& base, const BigUInt& exp,
                                const BigUInt& m) {
  if (m.IsZero()) {
    return Status::InvalidArgument("modulus must be non-zero");
  }
  if (m == BigUInt(1)) {
    return BigUInt();
  }
  if (m.IsOdd()) {
    PROVDB_ASSIGN_OR_RETURN(MontgomeryContext ctx, MontgomeryContext::Create(m));
    return ctx.ModExp(base, exp);
  }
  // Generic square-and-multiply for even moduli. The square feeding bit
  // i+1 is computed only while bits remain: squaring after the last
  // exponent bit would be a full-width Mul + DivMod whose result is
  // discarded — pure waste (for RSA-sized operands the single largest
  // step of the loop).
  PROVDB_ASSIGN_OR_RETURN(BigUInt acc, Mod(base, m));
  BigUInt result(1);
  size_t bits = exp.BitLength();
  for (size_t i = 0; i < bits; ++i) {
    if (exp.GetBit(i)) {
      PROVDB_ASSIGN_OR_RETURN(result, Mod(Mul(result, acc), m));
    }
    if (i + 1 < bits) {
      PROVDB_ASSIGN_OR_RETURN(acc, Mod(Mul(acc, acc), m));
    }
  }
  return result;
}

BigUInt BigUInt::Gcd(BigUInt a, BigUInt b) {
  while (!b.IsZero()) {
    auto dm = DivMod(a, b);
    a = std::move(b);
    b = std::move(dm.value().remainder);
  }
  return a;
}

Result<BigUInt> BigUInt::ModInverse(const BigUInt& a, const BigUInt& m) {
  if (m.IsZero()) {
    return Status::InvalidArgument("modulus must be non-zero");
  }
  // Extended Euclid tracking only the t-coefficient, with explicit signs.
  PROVDB_ASSIGN_OR_RETURN(BigUInt r, Mod(a, m));
  BigUInt old_r = m;
  BigUInt old_t;            // 0
  BigUInt t(1);
  bool old_t_neg = false;
  bool t_neg = false;

  while (!r.IsZero()) {
    PROVDB_ASSIGN_OR_RETURN(DivModResult dm, DivMod(old_r, r));
    const BigUInt& q = dm.quotient;

    // new_t = old_t - q * t (signed).
    BigUInt qt = Mul(q, t);
    bool qt_neg = t_neg;
    BigUInt new_t;
    bool new_t_neg;
    if (old_t_neg == qt_neg) {
      // Same sign: magnitude subtraction, sign follows the larger.
      if (Compare(old_t, qt) >= 0) {
        new_t = Sub(old_t, qt);
        new_t_neg = old_t_neg;
      } else {
        new_t = Sub(qt, old_t);
        new_t_neg = !old_t_neg;
      }
    } else {
      new_t = Add(old_t, qt);
      new_t_neg = old_t_neg;
    }
    if (new_t.IsZero()) {
      new_t_neg = false;
    }

    old_r = std::move(r);
    r = std::move(dm.remainder);
    old_t = std::move(t);
    old_t_neg = t_neg;
    t = std::move(new_t);
    t_neg = new_t_neg;
  }

  if (old_r != BigUInt(1)) {
    return Status::InvalidArgument("no modular inverse: gcd != 1");
  }
  if (old_t_neg) {
    PROVDB_ASSIGN_OR_RETURN(BigUInt reduced, Mod(old_t, m));
    if (reduced.IsZero()) {
      return reduced;
    }
    return Sub(m, reduced);
  }
  return Mod(old_t, m);
}

// ---------------------------------------------------------------------
// MontgomeryContext

namespace {

using detail::MontLimb;

// Double-width type for the engine radix: every MontLimb product must
// fit it exactly.
#if defined(__SIZEOF_INT128__)
using MontWide = unsigned __int128;
#else
using MontWide = uint64_t;
#endif

constexpr size_t kMontLimbBits = sizeof(MontLimb) * 8;

// Repacks little-endian 32-bit limbs into `count` engine limbs
// (zero-padded). Works for any engine radix that is a multiple of 32.
std::vector<MontLimb> PackMontLimbs(const std::vector<uint32_t>& limbs,
                                    size_t count) {
  std::vector<MontLimb> out(count, 0);
  for (size_t i = 0; i < limbs.size(); ++i) {
    out[i * 32 / kMontLimbBits] |= static_cast<MontLimb>(limbs[i])
                                   << ((i * 32) % kMontLimbBits);
  }
  return out;
}

// Exponent bit length below which ModExp runs the binary ladder:
// building the window table costs more multiplies than windowing saves
// on a short exponent (RSA's e = 65537 is the textbook case). The cutoff
// depends only on BitLength(exp), which the ladder's operation count
// reveals anyway, so it leaks nothing new.
constexpr size_t kWindowedLadderMinExpBits = 128;

// Constant-time window-table row selection: touches every row and
// accumulates the requested one through an all-ones/all-zero mask, so
// neither memory addresses nor branches depend on the (secret) window
// value. `rows` is 32 (5-bit windows), so r ^ idx < 2^31 and the borrow
// trick below is exact. See DESIGN.md §15.
void CtSelectRow(const MontLimb* table, uint32_t rows, size_t n,
                 uint32_t idx, MontLimb* out) {
  std::fill(out, out + n, static_cast<MontLimb>(0));
  for (uint32_t r = 0; r < rows; ++r) {
    const uint32_t d = r ^ idx;  // 0 iff this row
    const MontLimb mask = static_cast<MontLimb>(0) -
                          static_cast<MontLimb>((d - 1u) >> 31);
    const MontLimb* row = table + static_cast<size_t>(r) * n;
    for (size_t j = 0; j < n; ++j) {
      out[j] |= row[j] & mask;
    }
  }
}

// k exponent bits starting at bit `lo` (LSB first); bits past the end
// read as zero, so the top window is naturally short.
uint32_t WindowAt(const BigUInt& exp, size_t lo, size_t k) {
  uint32_t w = 0;
  for (size_t j = 0; j < k; ++j) {
    if (exp.GetBit(lo + j)) {
      w |= 1u << j;
    }
  }
  return w;
}

}  // namespace

Result<MontgomeryContext> MontgomeryContext::Create(const BigUInt& modulus) {
  if (!modulus.IsOdd() || modulus <= BigUInt(1)) {
    return Status::InvalidArgument("Montgomery modulus must be odd and > 1");
  }
  // Context derivation (two divisions + the Newton inverse) is the cost
  // callers are expected to amortize; the counter lets tests pin that a
  // cached signer/verifier really does reuse its context.
  static observability::Counter* context_counter =
      observability::GlobalMetrics().counter("crypto.bignum.montgomery_contexts");
  context_counter->Increment();
  MontgomeryContext ctx;
  ctx.modulus_ = modulus;

  // The modulus repacked into engine limbs, with n' = -m^-1 mod
  // 2^bits(MontLimb) by Newton iteration on the low limb.
  ctx.mont_limbs_ =
      (modulus.limbs_.size() * 32 + kMontLimbBits - 1) / kMontLimbBits;
  ctx.mont_m_ = PackMontLimbs(modulus.limbs_, ctx.mont_limbs_);
  MontLimb inv_l = 1;
  for (size_t i = 0; kMontLimbBits >> i > 1; ++i) {
    inv_l *= 2 - ctx.mont_m_[0] * inv_l;  // doubles correct low bits
  }
  ctx.mont_n_prime_ = static_cast<MontLimb>(0) - inv_l;

  BigUInt r_l = BigUInt(1).ShiftLeft(kMontLimbBits * ctx.mont_limbs_);
  PROVDB_ASSIGN_OR_RETURN(BigUInt r_l_mod, BigUInt::Mod(r_l, modulus));
  PROVDB_ASSIGN_OR_RETURN(
      BigUInt r2_l_mod,
      BigUInt::Mod(BigUInt::Mul(r_l_mod, r_l_mod), modulus));
  ctx.mont_r_ = PackMontLimbs(r_l_mod.limbs_, ctx.mont_limbs_);
  ctx.mont_r2_ = PackMontLimbs(r2_l_mod.limbs_, ctx.mont_limbs_);
  return ctx;
}

void MontgomeryContext::MontMulIntoL(const MontLimb* a, const MontLimb* b,
                                     MontLimb* out,
                                     MontLimb* scratch) const {
  // CIOS (coarsely integrated operand scanning) Montgomery multiplication
  // on flat limbs. The one-limb shift after each REDC round is fused into
  // the REDC pass (it writes t[j-1]), so each round is exactly two
  // multiply-accumulate sweeps. `out` is written only after both inputs
  // have been fully consumed, which is what makes aliasing legal. 64-bit
  // limbs halve both the round count and each sweep's length, a quarter
  // of the multiply-accumulates of 32-bit limbs.
  const size_t n = mont_limbs_;
  const MontLimb* m = mont_m_.data();
  MontLimb* t = scratch;
  std::fill(t, t + n + 2, static_cast<MontLimb>(0));
  for (size_t i = 0; i < n; ++i) {
    const MontWide ai = a[i];
    MontWide carry = 0;
    for (size_t j = 0; j < n; ++j) {
      MontWide cur = t[j] + ai * b[j] + carry;
      t[j] = static_cast<MontLimb>(cur);
      carry = cur >> kMontLimbBits;
    }
    MontWide cur = t[n] + carry;
    t[n] = static_cast<MontLimb>(cur);
    t[n + 1] = static_cast<MontLimb>(t[n + 1] +
                                     static_cast<MontLimb>(cur >> kMontLimbBits));

    const MontLimb u = static_cast<MontLimb>(t[0] * mont_n_prime_);
    MontWide cur2 = t[0] + static_cast<MontWide>(u) * m[0];
    carry = cur2 >> kMontLimbBits;
    for (size_t j = 1; j < n; ++j) {
      cur2 = t[j] + static_cast<MontWide>(u) * m[j] + carry;
      t[j - 1] = static_cast<MontLimb>(cur2);
      carry = cur2 >> kMontLimbBits;
    }
    cur = t[n] + carry;
    t[n - 1] = static_cast<MontLimb>(cur);
    t[n] = static_cast<MontLimb>(t[n + 1] +
                                 static_cast<MontLimb>(cur >> kMontLimbBits));
    t[n + 1] = 0;
  }

  // Conditional final subtraction: t in [0, 2m), t[n] <= 1. The branch
  // is on the *value* of the product — accepted CIOS leakage
  // (DESIGN.md §15).
  bool ge = t[n] != 0;
  if (!ge) {
    ge = true;  // equal compares as >=
    for (size_t j = n; j-- > 0;) {
      if (t[j] != m[j]) {
        ge = t[j] > m[j];
        break;
      }
    }
  }
  if (ge) {
    MontLimb borrow = 0;
    for (size_t j = 0; j < n; ++j) {
      const MontLimb mj = m[j];
      const MontLimb tj = t[j];
      const MontLimb diff = tj - mj - borrow;
      // Borrow out of tj - mj - borrow_in, branch-free on the limb
      // values (the subtraction itself is taken on a value branch
      // above).
      borrow = static_cast<MontLimb>((tj < mj) ||
                                     (tj == mj && borrow != 0) ? 1 : 0);
      out[j] = diff;
    }
  } else {
    std::copy(t, t + n, out);
  }
}

BigUInt MontgomeryContext::ModExp(const BigUInt& base,
                                  const BigUInt& exp) const {
  const size_t n = mont_limbs_;

  // All ladder state lives in flat engine-radix buffers allocated here,
  // once per exponentiation; the MontMulIntoL core allocates nothing.
  // For an RSA-1024 CRT half that replaces ~1500 vector allocations
  // with a handful.
  std::vector<MontLimb> scratch(n + 2);
  std::vector<MontLimb> result(n, 0);

  // base, reduced mod m, into Montgomery form: (base mod m) * R_L^2 *
  // R_L^-1.
  std::vector<MontLimb> base_mont;
  {
    BigUInt reduced = base;
    if (BigUInt::Compare(reduced, modulus_) >= 0) {
      reduced = BigUInt::Mod(reduced, modulus_).value();
    }
    base_mont = PackMontLimbs(reduced.limbs_, n);
    MontMulIntoL(base_mont.data(), mont_r2_.data(), base_mont.data(),
                 scratch.data());
  }

  const size_t bits = exp.BitLength();

  if (bits < kWindowedLadderMinExpBits) {
    // Bit-at-a-time square-and-multiply, MSB first. exp == 0 lands here
    // too: zero loop iterations leave result = 1 in Montgomery form.
    std::copy(mont_r_.begin(), mont_r_.end(), result.begin());
    for (size_t i = bits; i-- > 0;) {
      MontMulIntoL(result.data(), result.data(), result.data(),
                   scratch.data());
      if (exp.GetBit(i)) {
        MontMulIntoL(result.data(), base_mont.data(), result.data(),
                     scratch.data());
      }
    }
  } else {
    // Fixed 5-bit windows, MSB first: per window k squarings then one
    // multiply by table[window]. table[0] = 1 in Montgomery form, so a
    // zero window performs the same multiply as any other — the
    // operation sequence depends only on BitLength(exp), and the table
    // row is fetched with the mask scan in CtSelectRow, never indexed
    // by the secret window value.
    constexpr size_t k = 5;
    constexpr uint32_t rows = 1u << k;
    std::vector<MontLimb> table(static_cast<size_t>(rows) * n);
    std::copy(mont_r_.begin(), mont_r_.end(), table.begin());
    std::copy(base_mont.begin(), base_mont.end(),
              table.begin() + static_cast<ptrdiff_t>(n));
    for (uint32_t w = 2; w < rows; ++w) {
      MontMulIntoL(&table[static_cast<size_t>(w - 1) * n],
                   base_mont.data(), &table[static_cast<size_t>(w) * n],
                   scratch.data());
    }

    std::vector<MontLimb> sel(n);
    const size_t windows = (bits + k - 1) / k;
    CtSelectRow(table.data(), rows, n, WindowAt(exp, (windows - 1) * k, k),
                result.data());
    for (size_t wi = windows - 1; wi-- > 0;) {
      for (size_t s = 0; s < k; ++s) {
        MontMulIntoL(result.data(), result.data(), result.data(),
                     scratch.data());
      }
      CtSelectRow(table.data(), rows, n, WindowAt(exp, wi * k, k),
                  sel.data());
      MontMulIntoL(result.data(), sel.data(), result.data(),
                   scratch.data());
    }
  }

  // Out of Montgomery form: result * 1 * R_L^-1 mod m.
  std::vector<MontLimb> one(n, 0);
  one[0] = 1;
  MontMulIntoL(result.data(), one.data(), result.data(), scratch.data());

  // Unpack engine limbs back into the 32-bit representation.
  BigUInt out;
  out.limbs_.assign(n * (kMontLimbBits / 32), 0);
  for (size_t j = 0; j < out.limbs_.size(); ++j) {
    out.limbs_[j] = static_cast<uint32_t>(
        result[j * 32 / kMontLimbBits] >> ((j * 32) % kMontLimbBits));
  }
  out.Normalize();
  return out;
}

}  // namespace provdb::crypto
