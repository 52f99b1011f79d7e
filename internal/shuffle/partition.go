package shuffle

// PartitionOf maps an encoded key to one of parts partitions with
// FNV-1a over the key bytes, whose fixed constants make the answer the
// same in every process. The exchange samples with it — a key is in a
// node's sample when it maps to partition 0 — so the sample, unlike a
// container's iteration order, is a function of the keys alone. Keys go
// to nodes by sampled splitters, not by this hash.
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
