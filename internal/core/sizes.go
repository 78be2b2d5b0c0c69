package core

// Wire-size model for the bytes view of the traffic experiments. The
// simulator's message counters reproduce the paper's metric (message count);
// these estimates — grounded in the live protocol's actual encodings
// (internal/wire framing, pkc seal overhead, Ed25519/X25519 key and
// signature sizes) — additionally let experiments report traffic volume,
// where hiREP's onion layers make individual messages much larger than
// flood queries.
const (
	sizeFrame  = 5  // length prefix + type byte
	sizeAddr   = 21 // "255.255.255.255:65535"
	sizeSig    = 64 // Ed25519 signature
	sizeNodeID = 20 // SHA-1 digest
	sizeNonce  = 16
	sizeKey    = 32 // Ed25519 or X25519 public key
	sizeSeal   = 60 // pkc.SealOverhead(): ephemeral key + GCM nonce + tag
	sizeField  = 4  // length prefix per codec field
)

// onionBlobSize is the ciphertext size of an onion with the given number of
// remaining layers: a fake core (sealed marker) plus one sealed
// (addr ++ inner) wrap per layer.
func onionBlobSize(layers int) int {
	core := sizeSeal + 2 + 19 // sealed fake-onion marker
	return core + layers*(sizeSeal+2+sizeAddr)
}

// onionWireSize is a full published onion: entry address, blob, sequence
// number, builder signature, plus field framing.
func onionWireSize(layers int) int {
	return sizeAddr + onionBlobSize(layers) + 8 + sizeSig + 4*sizeField
}

// payloadSize estimates the end-to-end (sealed) payload carried through an
// onion for each protocol message. o is the configured onion length (reply
// onions embedded in requests have o layers).
func (s *System) payloadSize(inner any) int {
	switch p := inner.(type) {
	case *trustReqPayload:
		// SP + AP + subject list + nonce + embedded reply onion, sealed.
		return sizeKey*2 + sizeNodeID*len(p.candidates) + sizeNonce +
			onionWireSize(s.cfg.OnionRelays) + 6*sizeField + sizeSeal
	case *trustRespPayload:
		// signed (values + nonce + flag) + SP + signature, sealed.
		return 8*len(p.estimates) + sizeNonce + 1 + sizeKey + sizeSig + 5*sizeField + sizeSeal
	case *reportPayload:
		// reporter id + signed report wire (subject+outcome+nonce+sig), sealed.
		return sizeNodeID + (sizeNodeID + 1 + sizeNonce + sizeSig) + 2*sizeField + sizeSeal
	default:
		return 64
	}
}

// onionHopSize is the on-wire size of one onion-envelope hop: frame, the
// blob with the given remaining layers, and the sealed payload.
func onionHopSize(remainingLayers, payload int) int {
	return sizeFrame + onionBlobSize(remainingLayers) + 8 + payload + 2*sizeField
}

// listReqSize / listRespSize / probeSize model the maintenance messages.
func listReqSize() int { return sizeFrame + sizeNonce + sizeAddr + 16 + 4*sizeField }

func listRespSize(entries int) int {
	return sizeFrame + sizeNonce + entries*(sizeNodeID+8) + 2*sizeField
}

func probeSize() int { return sizeFrame + sizeNodeID + sizeAddr + 2*sizeField }
