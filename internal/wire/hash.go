package wire

// TokenHash is FNV-1a over a session token: the routing hash the cluster
// ring places tokens with (internal/cluster). TestTokenHashMatchesFNV1a
// pins the implementation against the standard library's hash/fnv.
func TokenHash(token string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(token); i++ {
		h ^= uint64(token[i])
		h *= prime64
	}
	return h
}
