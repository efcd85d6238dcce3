#include "jvm/class_loader.h"

namespace jaguar {
namespace jvm {

Result<const LoadedClass*> ClassLoader::LoadClass(Slice class_file_bytes) {
  JAGUAR_ASSIGN_OR_RETURN(ClassFile cf, ClassFile::Parse(class_file_bytes));
  JAGUAR_ASSIGN_OR_RETURN(VerifiedClass verified, Verify(cf));
  return DefineClass(std::move(verified));
}

Result<const LoadedClass*> ClassLoader::DefineClass(VerifiedClass cls) {
  if (classes_.count(cls.name) != 0) {
    return AlreadyExists("class '" + cls.name +
                         "' already defined in this namespace");
  }
  auto loaded = std::make_unique<LoadedClass>();
  loaded->cls = std::move(cls);
  loaded->loader = this;
  const LoadedClass* ptr = loaded.get();
  classes_[ptr->cls.name] = std::move(loaded);
  return ptr;
}

Result<const LoadedClass*> ClassLoader::FindClass(
    const std::string& name) const {
  auto it = classes_.find(name);
  if (it != classes_.end()) return it->second.get();
  if (parent_ != nullptr) return parent_->FindClass(name);
  return NotFound("class '" + name + "' not found in this namespace");
}

}  // namespace jvm
}  // namespace jaguar
