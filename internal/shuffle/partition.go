package shuffle

// PartitionOf maps an encoded key to one of parts partitions with
// FNV-1a over the key bytes. The exchange no longer hashes keys to nodes
// — it cuts runs at sampled splitters (sortalgo.Cut) — so the program
// never calls this: it stays exported only for bench/chain.go's viaNodes
// stage, which therefore times a partition step the exchange no longer
// runs.
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
