package shuffle

// PartitionOf maps an encoded key to one of parts partitions with
// FNV-1a over the key bytes. The hash is deliberately NOT one of the
// containers' hashes (maphash, kv.KeyHash), whose seeds are
// process-random: partition
// ownership decides which node reduces a key, so it must be stable
// across processes and runs for multi-node output to be reproducible.
// Every occurrence of a key hashes to one partition, which is what
// makes partitions' key sets disjoint and the final cross-node merge a
// pure interleave.
func PartitionOf(key []byte, parts int) int {
	if parts <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(parts))
}
