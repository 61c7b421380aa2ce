package protocol

// Replication seam: the protocol layer does not replicate anything
// itself, but it is where a write's consistency choice arrives on the
// wire and where a successful local mutation must be handed to whoever
// fans it out to replicas. The memcached binary header's vbucket field
// (request bytes 6-7, unused by this server's flat keyspace) carries a
// per-op ReplMode; the ASCII protocol has no spare field, so ASCII
// writes always use the server's default mode.
//
// Loop prevention is by construction: replica traffic is sent with
// ReplLocal, which the receiving session never re-replicates.

// ReplMode selects how one write propagates to replicas.
type ReplMode uint16

const (
	// ReplDefault defers to the server's configured default mode.
	ReplDefault ReplMode = 0
	// ReplLocal applies the write locally only — the mode replica
	// traffic is tagged with, so fan-out never loops.
	ReplLocal ReplMode = 1
	// ReplAsync acknowledges after the local store and fans out to
	// replicas in the background (fire-and-forget; bounded staleness).
	ReplAsync ReplMode = 2
	// ReplQuorum acknowledges only after a majority of the key's
	// replica set (including the local store) has applied the write.
	ReplQuorum ReplMode = 3
)

func (m ReplMode) String() string {
	if m <= ReplQuorum {
		return [...]string{"default", "local", "async", "quorum"}[m]
	}
	return "unknown"
}

// ReplModeFromVbucket decodes the request vbucket field. Unknown values
// fall back to ReplDefault so frames from vbucket-aware stock memcached
// clients degrade to the server's configured behaviour instead of
// erroring.
func ReplModeFromVbucket(v uint16) ReplMode {
	if m := ReplMode(v); m <= ReplQuorum {
		return m
	}
	return ReplDefault
}

// ParseReplMode parses a mode name ("async", "quorum", "local",
// "default") as used by server flags.
func ParseReplMode(s string) (ReplMode, bool) {
	for m := ReplDefault; m <= ReplQuorum; m++ {
		if s == m.String() || s == "" {
			return m, true
		}
	}
	return ReplDefault, false
}

// StatusNoQuorum is the binary response status for a quorum write that
// stored locally but could not gather majority acknowledgement in time.
// The write is NOT rolled back — the client must treat the op as
// unacknowledged and retry (the memcached model has no transactional
// undo; retrying a set is idempotent).
const StatusNoQuorum = 0x0086

// Replicator receives successful local mutations for replica fan-out.
// Implementations decide what each mode means; a ReplicateSet or
// ReplicateDelete error is surfaced to the client as a no-quorum
// failure, so only quorum-mode implementations should return errors.
//
// The value slice is borrowed from the session's reused frame buffer
// and is valid only for the duration of the call: implementations that
// retain it (queues, in-flight fan-out) must copy it first.
type Replicator interface {
	ReplicateSet(key string, value []byte, flags uint32, exptime int64, mode ReplMode) error
	ReplicateDelete(key string, mode ReplMode) error
	// ReplicateTouch propagates a successful TTL update. Without it a
	// touched item lives longer on the primary than on replicas (or vice
	// versa for a shortened TTL), so a failover serves resurrected or
	// prematurely-dead items — the replica TTL divergence bug.
	ReplicateTouch(key string, exptime int64, mode ReplMode) error
	// ReplicateFlush propagates a flush_all (with its optional delay).
	// Without it replicas keep serving the entire flushed dataset after
	// a failover.
	ReplicateFlush(delay int64, mode ReplMode) error
}
