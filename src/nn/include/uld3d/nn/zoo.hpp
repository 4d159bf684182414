// Model zoo: exact layer-by-layer descriptions of the CNNs the paper
// evaluates (Fig. 5: AlexNet, VGG, ResNet-18, ResNet-152; Table I:
// ResNet-18 per-layer).  Shapes follow the standard ImageNet variants.
#pragma once

#include <string>
#include <vector>

#include "uld3d/nn/network.hpp"

namespace uld3d::nn {

[[nodiscard]] Network make_alexnet();
[[nodiscard]] Network make_vgg16();
[[nodiscard]] Network make_resnet18();
[[nodiscard]] Network make_resnet34();
[[nodiscard]] Network make_resnet50();
[[nodiscard]] Network make_resnet152();

/// Lookup by case-insensitive name ("resnet18", "ResNet-18", ...).
/// Throws PreconditionError for unknown names.
[[nodiscard]] Network make_network(const std::string& name);

/// True when make_network() accepts `name`.
[[nodiscard]] bool is_zoo_network(const std::string& name);

/// Names accepted by make_network().
[[nodiscard]] std::vector<std::string> zoo_names();

}  // namespace uld3d::nn
