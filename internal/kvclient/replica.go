package kvclient

import (
	"errors"
	"time"

	"kv3d/internal/protocol"
)

// Replica is a BinaryClient used as a replication peer link. It
// satisfies kvserver.ReplConn structurally (kvserver cannot import
// kvclient), so a server with peers and the tests that build one dial
// their replicas the same way. A delete or touch of an absent key
// succeeds, as ReplConn asks: the replica never had the key, so the
// op's goal holds.
type Replica struct{ *BinaryClient }

// DialReplica connects to a peer's binary protocol, with timeout
// bounding both the dial and every operation.
func DialReplica(addr string, timeout time.Duration) (Replica, error) {
	bc, err := DialBinaryOptions(addr, Options{DialTimeout: timeout, OpTimeout: timeout})
	return Replica{bc}, err
}

// DeleteWithMode removes a key; an absent key is success.
func (r Replica) DeleteWithMode(key string, mode protocol.ReplMode) error {
	return absentIsDone(r.BinaryClient.DeleteWithMode(key, mode))
}

// TouchWithMode updates a key's TTL; an absent key is success.
func (r Replica) TouchWithMode(key string, exptime int64, mode protocol.ReplMode) error {
	return absentIsDone(r.BinaryClient.TouchWithMode(key, exptime, mode))
}

func absentIsDone(err error) error {
	if errors.Is(err, ErrNotFound) {
		return nil
	}
	return err
}
