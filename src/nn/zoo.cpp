#include "uld3d/nn/zoo.hpp"

#include <algorithm>
#include <cctype>

#include "uld3d/util/check.hpp"

namespace uld3d::nn {

namespace {

/// Append one ResNet "basic block" (two 3x3 convs + residual add), used by
/// ResNet-18/34.  `stage` and `block` build Table-I style names such as
/// "L2.0 CONV1".  When `downsample` is true the block's first conv strides by
/// 2 and a 1x1 projection ("L2.0 DS") joins the skip path.
void append_basic_block(std::vector<Layer>& layers, int stage, int block,
                        std::int64_t channels, std::int64_t out_xy,
                        bool downsample) {
  const std::string prefix =
      "L" + std::to_string(stage) + "." + std::to_string(block) + " ";
  const std::int64_t in_ch = downsample ? channels / 2 : channels;
  const std::int64_t stride1 = downsample ? 2 : 1;
  if (downsample) {
    layers.push_back(make_conv(prefix + "DS", channels, in_ch, out_xy, out_xy,
                               1, 1, 2));
  }
  layers.push_back(make_conv(prefix + "CONV1", channels, in_ch, out_xy, out_xy,
                             3, 3, stride1));
  layers.push_back(
      make_conv(prefix + "CONV2", channels, channels, out_xy, out_xy, 3, 3, 1));
  layers.push_back(make_eltwise(prefix + "ADD", channels, out_xy, out_xy));
}

/// Append one ResNet "bottleneck block" (1x1 reduce, 3x3, 1x1 expand), used
/// by ResNet-50/152.  `in_ch` is the block's input channel count; the
/// internal width is `width` and the output is 4*width.
void append_bottleneck_block(std::vector<Layer>& layers, int stage, int block,
                             std::int64_t in_ch, std::int64_t width,
                             std::int64_t out_xy, bool spatial_downsample) {
  const std::string prefix =
      "L" + std::to_string(stage) + "." + std::to_string(block) + " ";
  const std::int64_t out_ch = 4 * width;
  const std::int64_t stride = spatial_downsample ? 2 : 1;
  if (in_ch != out_ch || spatial_downsample) {
    layers.push_back(make_conv(prefix + "DS", out_ch, in_ch, out_xy, out_xy, 1,
                               1, stride));
  }
  // The 1x1 reduce runs at the block's input resolution (out_xy * stride).
  layers.push_back(make_conv(prefix + "CONV1", width, in_ch, out_xy * stride,
                             out_xy * stride, 1, 1, 1));
  // The 3x3 conv carries the stride in torchvision's v1.5 ResNet.
  layers.push_back(
      make_conv(prefix + "CONV2", width, width, out_xy, out_xy, 3, 3, stride));
  layers.push_back(
      make_conv(prefix + "CONV3", out_ch, width, out_xy, out_xy, 1, 1, 1));
  layers.push_back(make_eltwise(prefix + "ADD", out_ch, out_xy, out_xy));
}

Network make_resnet_basic(const std::string& name,
                          const std::vector<int>& blocks_per_stage) {
  std::vector<Layer> layers;
  layers.push_back(make_conv("CONV1", 64, 3, 112, 112, 7, 7, 2));
  layers.push_back(make_pool("POOL1", 64, 56, 56, 3, 3, 2));
  const std::int64_t widths[4] = {64, 128, 256, 512};
  const std::int64_t maps[4] = {56, 28, 14, 7};
  for (int stage = 0; stage < 4; ++stage) {
    for (int block = 0; block < blocks_per_stage[static_cast<std::size_t>(stage)];
         ++block) {
      const bool downsample = stage > 0 && block == 0;
      append_basic_block(layers, stage + 1, block, widths[stage], maps[stage],
                         downsample);
    }
  }
  layers.push_back(make_pool("AVGPOOL", 512, 1, 1, 7, 7, 7));
  layers.push_back(make_fc("FC", 1000, 512));
  return Network(name, std::move(layers));
}

Network make_resnet_bottleneck(const std::string& name,
                               const std::vector<int>& blocks_per_stage) {
  std::vector<Layer> layers;
  layers.push_back(make_conv("CONV1", 64, 3, 112, 112, 7, 7, 2));
  layers.push_back(make_pool("POOL1", 64, 56, 56, 3, 3, 2));
  const std::int64_t widths[4] = {64, 128, 256, 512};
  const std::int64_t maps[4] = {56, 28, 14, 7};
  std::int64_t in_ch = 64;
  for (int stage = 0; stage < 4; ++stage) {
    for (int block = 0; block < blocks_per_stage[static_cast<std::size_t>(stage)];
         ++block) {
      const bool spatial_ds = stage > 0 && block == 0;
      append_bottleneck_block(layers, stage + 1, block, in_ch, widths[stage],
                              maps[stage], spatial_ds);
      in_ch = 4 * widths[stage];
    }
  }
  layers.push_back(make_pool("AVGPOOL", 2048, 1, 1, 7, 7, 7));
  layers.push_back(make_fc("FC", 1000, 2048));
  return Network(name, std::move(layers));
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  s.erase(std::remove_if(s.begin(), s.end(),
                         [](unsigned char c) { return c == '-' || c == '_'; }),
          s.end());
  return s;
}

}  // namespace

Network make_alexnet() {
  std::vector<Layer> layers;
  layers.push_back(make_conv("CONV1", 96, 3, 55, 55, 11, 11, 4));
  layers.push_back(make_pool("POOL1", 96, 27, 27, 3, 3, 2));
  layers.push_back(make_conv("CONV2", 256, 96, 27, 27, 5, 5, 1));
  layers.push_back(make_pool("POOL2", 256, 13, 13, 3, 3, 2));
  layers.push_back(make_conv("CONV3", 384, 256, 13, 13, 3, 3, 1));
  layers.push_back(make_conv("CONV4", 384, 384, 13, 13, 3, 3, 1));
  layers.push_back(make_conv("CONV5", 256, 384, 13, 13, 3, 3, 1));
  layers.push_back(make_pool("POOL5", 256, 6, 6, 3, 3, 2));
  layers.push_back(make_fc("FC6", 4096, 9216));
  layers.push_back(make_fc("FC7", 4096, 4096));
  layers.push_back(make_fc("FC8", 1000, 4096));
  return Network("AlexNet", std::move(layers));
}

Network make_vgg16() {
  std::vector<Layer> layers;
  struct Stage {
    std::int64_t channels;
    int convs;
    std::int64_t map;
  };
  const Stage stages[] = {{64, 2, 224}, {128, 2, 112}, {256, 3, 56},
                          {512, 3, 28}, {512, 3, 14}};
  std::int64_t in_ch = 3;
  int index = 1;
  for (const auto& stage : stages) {
    for (int i = 0; i < stage.convs; ++i) {
      layers.push_back(make_conv("CONV" + std::to_string(index++), stage.channels,
                                 in_ch, stage.map, stage.map, 3, 3, 1));
      in_ch = stage.channels;
    }
    layers.push_back(make_pool("POOL" + std::to_string(index - 1), stage.channels,
                               stage.map / 2, stage.map / 2, 2, 2, 2));
  }
  layers.push_back(make_fc("FC6", 4096, 25088));
  layers.push_back(make_fc("FC7", 4096, 4096));
  layers.push_back(make_fc("FC8", 1000, 4096));
  return Network("VGG-16", std::move(layers));
}

Network make_resnet18() { return make_resnet_basic("ResNet-18", {2, 2, 2, 2}); }

Network make_resnet34() { return make_resnet_basic("ResNet-34", {3, 4, 6, 3}); }

Network make_resnet50() {
  return make_resnet_bottleneck("ResNet-50", {3, 4, 6, 3});
}

Network make_resnet152() {
  return make_resnet_bottleneck("ResNet-152", {3, 8, 36, 3});
}

namespace {

using NetworkFactory = Network (*)();

/// make_network's lookup: the builder for `name`, or nullptr if unknown.
NetworkFactory find_network(const std::string& name) {
  const std::string key = lower(name);
  if (key == "alexnet") return make_alexnet;
  if (key == "vgg16" || key == "vgg") return make_vgg16;
  if (key == "resnet18") return make_resnet18;
  if (key == "resnet34") return make_resnet34;
  if (key == "resnet50") return make_resnet50;
  if (key == "resnet152") return make_resnet152;
  return nullptr;
}

}  // namespace

Network make_network(const std::string& name) {
  const NetworkFactory make = find_network(name);
  expects(make != nullptr, "unknown network: " + name);
  return make();
}

bool is_zoo_network(const std::string& name) {
  return find_network(name) != nullptr;
}

std::vector<std::string> zoo_names() {
  return {"AlexNet", "VGG-16", "ResNet-18", "ResNet-34", "ResNet-50",
          "ResNet-152"};
}

}  // namespace uld3d::nn
