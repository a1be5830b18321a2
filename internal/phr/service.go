package phr

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"

	"typepre/internal/hybrid"
)

// Service errors.
var (
	ErrNoProxy = errors.New("phr: no proxy deployed for this category")
)

// Service is the complete §5 deployment: one semi-trusted store, one proxy
// per category (the paper's recommended topology — compromise of one proxy
// must not cross category boundaries), and the KGC2 domain requesters are
// registered at.
type Service struct {
	// Store is the pluggable storage layer holding the sealed records:
	// the in-memory backend by default, the crash-safe disk backend in a
	// persistent deployment (cmd/phrserver -store=disk).
	Store Backend

	proxies map[Category]*Proxy // built by NewService, never written after
}

// NewService creates a service with one dedicated proxy per category over
// a storage backend: NewStore() for the in-memory one.
func NewService(categories []Category, backend Backend) *Service {
	proxies := map[Category]*Proxy{}
	for _, c := range categories {
		proxies[c] = NewProxy("proxy-" + string(c))
	}
	return &Service{Store: backend, proxies: proxies}
}

// ProxyFor returns the proxy serving a category.
func (s *Service) ProxyFor(c Category) (*Proxy, error) {
	p, ok := s.proxies[c]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoProxy, c)
	}
	return p, nil
}

// Proxies returns the deployed proxies keyed by category (copy).
func (s *Service) Proxies() map[Category]*Proxy {
	out := make(map[Category]*Proxy, len(s.proxies))
	for c, p := range s.proxies {
		out[c] = p
	}
	return out
}

// Request performs the full disclosure flow for one record: fetch it once,
// route it to its category's proxy, re-encrypt, and return the transformed
// ciphertext, decoded from the frame the HTTP API serves. The requester
// decrypts locally with their own key (the service never holds requester
// keys). An unknown record is ErrNotFound before any proxy sees the
// request, so it leaves no audit entry. A record the store holds but fails
// to read is routed by the store's index to its proxy, which audits the
// failure (OutcomeError, or OutcomeNoGrant for a requester without a
// grant).
func (s *Service) Request(recordID, requesterID string) (*hybrid.ReCiphertext, error) {
	var out *hybrid.ReCiphertext
	err := s.discloseRecord(recordID, requesterID, func(frame []byte, _ bool) (err error) {
		out, err = decodeFrame(frame)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// discloseRecord is Request yielding the record's wire frame (see
// hybrid.ReEncryptStream) instead of decoding it.
func (s *Service) discloseRecord(recordID, requesterID string, yield func(frame []byte, wait bool) error) error {
	rec, err := s.Store.Get(recordID)
	var patientID string
	var c Category
	switch {
	case err == nil:
		patientID, c = rec.PatientID, rec.Category
	case errors.Is(err, ErrNotFound):
		return err
	default:
		var ok bool
		if patientID, c, ok = s.Store.Route(recordID); !ok {
			return err
		}
	}
	proxy, perr := s.ProxyFor(c)
	if perr != nil {
		return cmp.Or(err, perr) // no proxy can audit a failed read
	}
	// The proxy checks the grant before it takes the record, or audits the
	// failed read as OutcomeError.
	d := disclosure{patientID: patientID, category: c, requester: requesterID, recordID: recordID, outcome: OutcomeGranted}
	return proxy.disclose(d, func() ([]*EncryptedRecord, error) {
		if err != nil {
			return nil, err
		}
		return []*EncryptedRecord{rec}, nil
	}, yield)
}

// decodeFrame decodes the container of one disclosure frame. The engine
// reuses the frame's buffer once yield returns, and a decoded ciphertext
// aliases its input, so it decodes a copy.
func decodeFrame(frame []byte) (*hybrid.ReCiphertext, error) {
	return hybrid.UnmarshalReCiphertext(bytes.Clone(frame[hybrid.FrameHeader:]))
}
