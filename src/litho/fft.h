// The FFT litho convolution is deleted; the direct separable convolution
// (litho.h) is the only one. This header stays only because perfbench's
// layers.cpp includes it.
#pragma once

namespace dfm {

/// Empty and read by nothing; goes with ROADMAP item 8's benchmark revision.
class KernelSpectrumCache {};

}  // namespace dfm
