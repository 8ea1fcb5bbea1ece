package tenant

import "context"

type ctxKey struct{}

// NewContext attaches the authenticated tenant to a request context.
func NewContext(ctx context.Context, t *Tenant) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the tenant attached by NewContext, or nil.
func FromContext(ctx context.Context) *Tenant {
	t, _ := ctx.Value(ctxKey{}).(*Tenant)
	return t
}

// Resolve returns the tenant attached to ctx by the auth middleware,
// falling back to the default tenant for calls that bypass it (tests
// driving a mux directly, in-process callers).
func (r *Registry) Resolve(ctx context.Context) *Tenant {
	if t := FromContext(ctx); t != nil {
		return t
	}
	return r.Default()
}
