package datapipe

import (
	"errors"
	"fmt"
	"sync"
)

// Broker errors.
var (
	ErrNoTopic = errors.New("datapipe: topic does not exist")
	ErrNoGroup = errors.New("datapipe: consumer group not subscribed")
)

// Message is one event in a topic log.
type Message struct {
	Offset int64
	Key    string
	Value  []byte
}

// Broker is a Kafka-style append-only log broker: topics hold ordered
// messages retained indefinitely; consumer groups track their own
// offsets, so independent consumers replay the same stream — the
// broker–producer–consumer model from the Unit-8 lecture.
type Broker struct {
	mu      sync.Mutex
	topics  map[string][]Message
	offsets map[string]map[string]int64 // topic -> group -> next offset
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{topics: map[string][]Message{}, offsets: map[string]map[string]int64{}}
}

// CreateTopic declares a topic; idempotent.
func (b *Broker) CreateTopic(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.topics[name]; !ok {
		b.topics[name] = nil
		b.offsets[name] = map[string]int64{}
	}
}

// Produce appends a message and returns its offset.
func (b *Broker) Produce(topic, key string, value []byte) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	log, ok := b.topics[topic]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoTopic, topic)
	}
	m := Message{Offset: int64(len(log)), Key: key, Value: append([]byte(nil), value...)}
	b.topics[topic] = append(log, m)
	return m.Offset, nil
}

// Subscribe registers a consumer group at the log's current tail (new
// groups see only future messages) or at offset 0 with fromBeginning.
func (b *Broker) Subscribe(topic, group string, fromBeginning bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	log, ok := b.topics[topic]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTopic, topic)
	}
	if _, exists := b.offsets[topic][group]; exists {
		return nil // idempotent
	}
	if fromBeginning {
		b.offsets[topic][group] = 0
	} else {
		b.offsets[topic][group] = int64(len(log))
	}
	return nil
}

// Poll returns up to max messages for the group and advances its offset
// (auto-commit semantics).
func (b *Broker) Poll(topic, group string, max int) ([]Message, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	log, ok := b.topics[topic]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTopic, topic)
	}
	off, ok := b.offsets[topic][group]
	if !ok {
		return nil, fmt.Errorf("%w: %q on %q", ErrNoGroup, group, topic)
	}
	end := off + int64(max)
	if end > int64(len(log)) {
		end = int64(len(log))
	}
	if off >= end {
		return nil, nil
	}
	out := append([]Message(nil), log[off:end]...)
	b.offsets[topic][group] = end
	return out, nil
}
