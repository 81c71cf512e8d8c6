#include "obs/request_context.h"

namespace cpgan::obs {

namespace {

thread_local RequestContext t_request_context;

}  // namespace

RequestContext CurrentRequestContext() { return t_request_context; }

uint64_t CurrentRequestId() { return t_request_context.id; }

ScopedRequestContext::ScopedRequestContext(const RequestContext& context)
    : previous_(t_request_context) {
  t_request_context = context;
}

ScopedRequestContext::~ScopedRequestContext() {
  t_request_context = previous_;
}

}  // namespace cpgan::obs
