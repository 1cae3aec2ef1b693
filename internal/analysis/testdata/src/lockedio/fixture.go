// Package fixture seeds lock-discipline violations for the lockedio golden
// test, including a regression fixture reproducing the PR 1 seed deadlock:
// a global mutex held across a socket write that can fill its buffer and
// starve the accept loop that would drain it.
package fixture

import (
	"net"
	"os"
	"sync"
)

// pr1Transport is the PR 1 shape: one mutex serializing both connection
// setup and sends, so a send blocked on a full socket buffer wedges the
// whole transport.
type pr1Transport struct {
	mu    sync.Mutex
	conns map[int]net.Conn
}

func (t *pr1Transport) send(dst int, data []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, err := t.conns[dst].Write(data) // want `performs net\.Conn\.Write while a mutex is held`
	return err
}

func chanSendLocked(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	ch <- 1 // want `sends on a channel while a mutex is held`
	mu.Unlock()
}

func chanRecvLocked(mu *sync.RWMutex, ch chan int) int {
	mu.RLock()
	defer mu.RUnlock()
	return <-ch // want `receives from a channel while a mutex is held`
}

func waitLocked(mu *sync.Mutex, wg *sync.WaitGroup) {
	mu.Lock()
	defer mu.Unlock()
	wg.Wait() // want `waits on a sync\.WaitGroup while a mutex is held`
}

func selectLocked(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	defer mu.Unlock()
	select { // want `blocks in a select while a mutex is held`
	case <-ch:
	}
}

// selectDefaultLocked never blocks: a select with a default is the
// sanctioned way to poll a channel under a lock.
func selectDefaultLocked(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	defer mu.Unlock()
	select {
	case <-ch:
	default:
	}
}

// condWaitLocked is correct: Cond.Wait releases the mutex while waiting.
func condWaitLocked(mu *sync.Mutex, cond *sync.Cond, ready *bool) {
	mu.Lock()
	defer mu.Unlock()
	for !*ready {
		cond.Wait()
	}
}

// unlockThenSend releases before blocking: no finding.
func unlockThenSend(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	mu.Unlock()
	ch <- 1
}

// earlyReturnUnlock: the unlock inside the terminating branch does not
// release the lock on the fall-through path.
func earlyReturnUnlock(mu *sync.Mutex, ch chan int, done bool) {
	mu.Lock()
	if done {
		mu.Unlock()
		return
	}
	ch <- 1 // want `sends on a channel while a mutex is held`
	mu.Unlock()
}

// goroutineUnderLock is fine: the spawned goroutine does not hold the
// caller's lock.
func goroutineUnderLock(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	defer mu.Unlock()
	go func() { ch <- 1 }()
}

func helperThatSends(ch chan int) {
	ch <- 1
}

func callsBlockingHelper(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	defer mu.Unlock()
	helperThatSends(ch) // want `call to helperThatSends, which sends on a channel, while a mutex is held`
}

func helperIndirect(ch chan int) {
	helperThatSends(ch)
}

func callsTransitiveHelper(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	defer mu.Unlock()
	helperIndirect(ch) // want `call to helperIndirect, which calls helperThatSends, which sends on a channel, while a mutex is held`
}

// walAppendFsyncLocked is the durable-store hazard: an fsync held under
// the store mutex serializes every append on device flush latency. The
// sanctioned shape is write-under-lock, sync-outside-lock (see
// internal/swaprt/mgrstore.FileStore.Append).
type walStore struct {
	mu  sync.Mutex
	wal *os.File
}

func (s *walStore) appendFsyncLocked(frame []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.wal.Write(frame); err != nil {
		return err
	}
	return s.wal.Sync() // want `performs os\.File\.Sync \(fsync\) while a mutex is held`
}

// appendSyncOutside is the sanctioned shape and must stay clean.
func (s *walStore) appendSyncOutside(frame []byte) error {
	s.mu.Lock()
	_, err := s.wal.Write(frame)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.wal.Sync()
}

// vectoredWriteLocked is the write path's writev form held under the
// lock: the same hazard as pr1Transport.send.
func (t *pr1Transport) vectoredWriteLocked(dst int, hdr, payload []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := net.Buffers{hdr, payload}
	_, err := v.WriteTo(t.conns[dst]) // want `performs net\.Buffers\.WriteTo on a net\.Conn while a mutex is held`
	return err
}
