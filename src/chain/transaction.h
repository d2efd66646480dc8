// Transactions: the paper's asset transactional model (Section 2.3).
//
// A transaction "takes one or more input assets owned by one identity and
// results in one or more output assets" — i.e. a UTXO model with merge and
// split (the paper's Figure 2). Two additional transaction types carry the
// smart-contract machinery of Section 2.3: contract deployment (with an
// optional locked msg.value) and contract function calls.
//
// Every transaction is a digital signature over its canonical encoding;
// miners validate that the signer owns all inputs and that value is
// conserved (inputs = outputs + fee + locked value).

#ifndef AC3_CHAIN_TRANSACTION_H_
#define AC3_CHAIN_TRANSACTION_H_

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "src/chain/params.h"
#include "src/common/bytes.h"
#include "src/crypto/hash256.h"
#include "src/crypto/schnorr.h"

namespace ac3::chain {

/// Reference to a prior transaction output (an unspent asset).
struct OutPoint {
  crypto::Hash256 tx_id;
  uint32_t index = 0;

  auto operator<=>(const OutPoint&) const = default;
};

/// One output asset: a value owned by an identity (public key).
struct TxOutput {
  Amount value = 0;
  crypto::PublicKey owner;

  auto operator<=>(const TxOutput&) const = default;
};

enum class TxType : uint8_t {
  kCoinbase = 1,  ///< Miner reward; first transaction of a block.
  kTransfer = 2,  ///< Plain asset merge/split transfer (Figure 2).
  kDeploy = 3,    ///< Smart-contract deployment ("publishing").
  kCall = 4,      ///< Smart-contract function invocation.
};

/// A signed transaction. For kDeploy, `contract_kind` selects the contract
/// class and `payload` carries the constructor arguments; `contract_value`
/// is msg.value, locked in the contract. For kCall, `contract_id` targets a
/// deployed contract and `function`/`payload` name the invocation.
class Transaction {
 public:
  TxType type = TxType::kTransfer;
  ChainId chain_id = 0;
  std::vector<OutPoint> inputs;
  std::vector<TxOutput> outputs;
  Amount fee = 0;
  /// Owner of every input and msg.sender of contract operations.
  crypto::PublicKey signer;
  /// Uniquifier so otherwise-identical transactions get distinct ids.
  uint64_t nonce = 0;

  // Contract fields (kDeploy / kCall).
  std::string contract_kind;
  crypto::Hash256 contract_id;
  std::string function;
  Bytes payload;
  Amount contract_value = 0;

  crypto::Signature signature;

  /// Canonical bytes covered by the signature (everything but the
  /// signature itself).
  Bytes SigningPayload() const;
  /// Full canonical encoding, including the signature.
  Bytes Encode() const;
  static Result<Transaction> Decode(const Bytes& encoded);

  /// Transaction id: SHA-256 of the full encoding.
  crypto::Hash256 Id() const;

  /// Signs with `key` and records the signer public key.
  void SignWith(const crypto::KeyPair& key);
  /// Verifies the signature against `signer`. Coinbases are unsigned.
  bool VerifySignature() const;

  /// Sum of declared output values.
  Amount TotalOutput() const;
};

}  // namespace ac3::chain

#endif  // AC3_CHAIN_TRANSACTION_H_
